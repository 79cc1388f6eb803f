"""Write the two TD problem files that the ``td-cli`` workload runs on.

    python3 perfbench/gen_td_problems.py [--out-dir perfbench/problems]

The files are committed; rerunning the script rewrites them byte for byte.
Each MDP is drawn from a generator seeded with ``SEED``, and a draw whose
mean update matrix is not Hurwitz is rejected and redrawn, so the committed
problems always sit inside the stability theory.

- ``td0_onpolicy.json``: one-step TD on-policy, 30 states, d = 4.
- ``gtd2_offpolicy.json``: GTD2 off-policy, 12 states, d = 3 (stacked
  dimension D = 6), Gaussian reward noise.  Its mean matrix is Hurwitz but
  not positive definite, so ``transform`` takes a non-identity route.  D = 6
  keeps one Monte Carlo ``transform`` call near 2.5 s on a 2-vCPU x86 box;
  D = 8 takes about 5.5 s and D = 16 about 90 s.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from lsalab.problem_io import td_instance_from_dict  # noqa: E402
from lsalab.transform import hurwitz_to_pd  # noqa: E402

SEED = 12
MAX_DRAWS = 100

# name -> (algo, eta, n_states, n_features, off_policy, reward_noise_std)
SPECS = {
    "td0_onpolicy": ("td0", 1.0, 30, 4, False, 0.0),
    "gtd2_offpolicy": ("gtd2", 1.0, 12, 3, True, 0.5),
}


def _stochastic_rows(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.dirichlet(np.full(n, 0.5), size=n)


def draw_spec(rng: np.random.Generator, algo, eta, n, d, off_policy, noise) -> dict:
    """One candidate problem-file dictionary (not yet checked for Hurwitz)."""
    target = _stochastic_rows(rng, n)
    mdp = {
        "features": rng.standard_normal((n, d)).tolist(),
        "transitions": target.tolist(),
        "rewards": rng.standard_normal(n).tolist(),
        "discount": 0.9,
    }
    if off_policy:
        # mixing with the uniform chain covers every target transition and
        # keeps importance ratios below 2
        behavior = 0.5 * target + 0.5 / n
        mdp["behavior_transitions"] = behavior.tolist()
    if noise:
        mdp["reward_noise_std"] = noise
    return {"type": "td_mdp", "algo": algo, "eta": eta, "mdp": mdp, "label": algo}


def generate() -> dict[str, dict]:
    """Seeded problem specs, redrawing any candidate that is not Hurwitz."""
    rng = np.random.default_rng(SEED)
    out = {}
    for name, params in SPECS.items():
        for _ in range(MAX_DRAWS):
            spec = draw_spec(rng, *params)
            if td_instance_from_dict(spec).hurwitz:
                break
        else:
            raise RuntimeError(f"{name}: no Hurwitz draw in {MAX_DRAWS} tries")
        spec["seed"] = SEED
        out[name] = spec
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default=str(Path(__file__).resolve().parent / "problems"))
    args = ap.parse_args(argv)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, spec in generate().items():
        inst = td_instance_from_dict(spec)
        kappa = hurwitz_to_pd(inst.moments.A_P).kappa_U
        (out_dir / f"{name}.json").write_text(json.dumps(spec, indent=1) + "\n")
        print(f"{name}: D={inst.problem.dim} kappa_U={kappa:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
