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
boolean or a negative number raises ValueError naming ``seed``.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from .problems import ProblemDistribution, make_finite_support, make_gaussian_noise, make_lower_bound_instance
from .td import SyntheticMdp, TdInstance, gtd_instance, td0_instance

__all__ = ["load_problem", "load_problem_file", "mdp_from_dict"]


def mdp_from_dict(spec: dict) -> SyntheticMdp:
    """The MDP of a ``td_mdp`` file's ``mdp`` object; optional fields may be
    omitted or null.  ``SyntheticMdp`` converts and checks every field."""
    fields = {k: spec[k] for k in ("features", "transitions", "rewards", "discount")}
    for k in ("sampling", "behavior_transitions", "reward_noise_std"):
        if spec.get(k) is not None:
            fields[k] = spec[k]
    return SyntheticMdp(**fields)


def load_problem(spec: dict) -> ProblemDistribution:
    """Build a ProblemDistribution from a problem-file dictionary."""
    kind = spec.get("type")
    if kind == "finite":
        atoms = [
            ((np.asarray(a["b"], dtype=float), np.asarray(a["A"], dtype=float)), a["p"])
            for a in spec["atoms"]
        ]
        p = make_finite_support(atoms, label=spec.get("label", "finite"))
    elif kind == "gaussian":
        p = make_gaussian_noise(
            np.asarray(spec["A"], dtype=float),
            np.asarray(spec["b"], dtype=float),
            float(spec.get("sigma_A", 0.0)),
            float(spec.get("sigma_b", 0.0)),
            label=spec.get("label"),
        )
    elif kind == "lower_bound":
        p = make_lower_bound_instance(
            float(spec["lambda_min"]),
            float(spec["lambda_max"]),
            float(spec.get("sigma_b", 0.0)),
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
        return gtd_instance(mdp, float(spec.get("eta", 1.0)), variant=algo)
    raise ValueError(f"unknown algo {algo!r}")


def load_problem_file(path) -> ProblemDistribution:
    """Load a problem from a JSON file path."""
    with open(Path(path)) as fh:
        return load_problem(json.load(fh))
