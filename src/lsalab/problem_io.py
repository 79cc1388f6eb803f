"""JSON problem files.

A problem file is a JSON object with a ``type`` field and family-specific
parameters; matrices are row-major nested arrays.

type "finite"::

    {"type": "finite",
     "atoms": [{"b": [0, 0], "A": [[1, 0], [0, 1]], "p": 0.6}, ...],
     "label": "optional", "seed": 123}

type "gaussian"::

    {"type": "gaussian", "A": [[1, -10], [10, 1]], "b": [-9, 11],
     "sigma_A": 5.0, "sigma_b": 0.0, "seed": 123}

type "lower_bound"::

    {"type": "lower_bound", "lambda_min": 1.0, "lambda_max": 2.0,
     "sigma_b": 1.0, "seed": 123}

type "td_mdp"::

    {"type": "td_mdp", "algo": "td0" | "gtd" | "gtd2", "eta": 1.0,
     "mdp": {"features": [[...]], "transitions": [[...]],
             "rewards": [...] or [[...]], "discount": 0.9,
             "sampling": [...],               # optional, default stationary
             "behavior_transitions": [[...]], # optional, default target
             "reward_noise_std": 0.0},        # optional
     "seed": 123}

``seed`` is optional everywhere; command-line tools fall back to it when no
--seed is given.  It must be a non-negative integer: a float (even 1.0), a
boolean or a negative number raises ValueError naming ``seed``.  The file,
``mdp`` and each atom must be JSON objects, ``atoms`` an array and every scalar
(``sigma_A``, ``p``, ``eta``, ``discount``, ...) a number, else ValueError.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .problems import ProblemDistribution, make_finite_support, make_gaussian_noise, make_lower_bound_instance
from .td import SyntheticMdp, TdInstance, gtd_instance, td0_instance

__all__ = ["load_problem", "load_problem_file", "mdp_from_dict"]


def _object(value, name: str) -> dict:
    """value, when it is a JSON object; ValueError naming ``name`` otherwise."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object")
    return value


def _number(value, name: str) -> float:
    """value as a float; ValueError naming ``name`` unless a JSON number (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return float(value)


def mdp_from_dict(spec: dict) -> SyntheticMdp:
    """The MDP of a ``td_mdp`` file's ``mdp`` object; optional fields may be
    omitted or null.  ``SyntheticMdp`` converts and checks every field."""
    spec = _object(spec, "mdp")
    fields = {k: spec[k] for k in ("features", "transitions", "rewards")}
    fields["discount"] = _number(spec["discount"], "discount")
    for k in ("sampling", "behavior_transitions"):
        if spec.get(k) is not None:
            fields[k] = spec[k]
    if spec.get("reward_noise_std") is not None:
        fields["reward_noise_std"] = _number(spec["reward_noise_std"], "reward_noise_std")
    return SyntheticMdp(**fields)


def load_problem(spec: dict) -> ProblemDistribution:
    """Build a ProblemDistribution from a problem-file dictionary."""
    kind = _object(spec, "problem").get("type")
    if kind == "finite":
        if not isinstance(spec["atoms"], list):
            raise ValueError("atoms must be a JSON array")
        atoms = []
        for i, a in enumerate(spec["atoms"]):
            a = _object(a, f"atoms[{i}]")
            b, A = (np.asarray(a[k], dtype=float) for k in ("b", "A"))
            atoms.append(((b, A), _number(a["p"], f"atoms[{i}].p")))
        p = make_finite_support(atoms, label=spec.get("label", "finite"))
    elif kind == "gaussian":
        p = make_gaussian_noise(
            np.asarray(spec["A"], dtype=float),
            np.asarray(spec["b"], dtype=float),
            _number(spec.get("sigma_A", 0.0), "sigma_A"),
            _number(spec.get("sigma_b", 0.0), "sigma_b"),
            label=spec.get("label"),
        )
    elif kind == "lower_bound":
        p = make_lower_bound_instance(
            _number(spec["lambda_min"], "lambda_min"),
            _number(spec["lambda_max"], "lambda_max"),
            _number(spec.get("sigma_b", 0.0), "sigma_b"),
        )
    elif kind == "td_mdp":
        instance = td_instance_from_dict(spec)
        p = instance.problem
    else:
        raise ValueError(f"unknown problem type {kind!r}")
    if spec.get("seed") is not None:
        p = dataclasses.replace(p, seed=spec["seed"])
    if spec.get("label"):
        p = dataclasses.replace(p, label=spec["label"])
    return p


def td_instance_from_dict(spec: dict) -> TdInstance:
    mdp = mdp_from_dict(spec["mdp"])
    algo = spec.get("algo", "td0")
    if algo == "td0":
        return td0_instance(mdp)
    if algo in ("gtd", "gtd2"):
        return gtd_instance(mdp, _number(spec.get("eta", 1.0), "eta"), variant=algo)
    raise ValueError(f"unknown algo {algo!r}")


def load_problem_file(path) -> ProblemDistribution:
    """Load a problem from a JSON file path."""
    with open(Path(path)) as fh:
        return load_problem(json.load(fh))
