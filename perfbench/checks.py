"""Correctness checks on the program's outputs.

Every check returns None when the result is correct and a one-line reason
when it is not.  None of them compares against a stored curve or number: the
random stream may change, so each check is a property every correct result
has whatever stream produced it (exit codes, certificates, envelopes).
"""

from __future__ import annotations

import math
from pathlib import Path


def exit_code(code) -> str | None:
    return None if code == 0 else f"exit code {code}"


def no_aborts(n_aborted: int) -> str | None:
    return None if n_aborted == 0 else f"{n_aborted} tuner run(s) aborted"


def no_divergence(n_diverged: int) -> str | None:
    """No replication may diverge at a certified step-size."""
    return None if n_diverged == 0 else f"{n_diverged} replication(s) diverged at a certified alpha"


def mse_within_bound(mse: float, upper: float) -> str | None:
    """The final MSE must be finite and at most the upper envelope."""
    if not math.isfinite(mse):
        return f"final MSE {mse!r} is not finite"
    if not mse <= upper:
        return f"final MSE {mse:.6g} exceeds the upper bound {upper:.6g}"
    return None


def within_witness(alpha: float, witness: float) -> str | None:
    """A step-size at most the certified witness step-size."""
    if not alpha <= witness:
        return f"alpha {alpha:.6g} exceeds witness {witness:.6g}"
    return None


def mean_stable(alpha: float, rho_d: float) -> str | None:
    """The mean iteration contracts at alpha: ||I - alpha A_P||^2 = 1 - alpha rho_d < 1."""
    if not math.isfinite(alpha) or not rho_d > 0:
        return f"alpha {alpha:.6g} is not mean-stable (rho_d {rho_d:.6g})"
    return None


def lambda_min_sym_positive(value) -> str | None:
    if value is None or not value > 0:
        return f"lambda_min_sym {value!r} is not positive"
    return None


def bound_rows_ordered(rows) -> str | None:
    """Every (t, lower, upper, ...) row of a bound CSV has lower <= upper."""
    if not rows:
        return "bound CSV has no rows"
    for t, lower, upper, *_ in rows:
        if not lower <= upper:
            return f"lower {lower:.6g} > upper {upper:.6g} at t={t:g}"
    return None


def read_csv(path) -> tuple[list[str], list[list[float]]]:
    """Header and float rows of a CSV written by the CLI (comments skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return header, [[float(x) for x in ln.split(",")] for ln in lines[1:]]
