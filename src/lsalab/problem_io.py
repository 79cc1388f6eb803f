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
``mdp`` and each atom must be JSON objects, ``atoms`` an array, every scalar
(``sigma_A``, ``p``, ``eta``, ``discount``, ...) a number and every matrix or
vector (``A``, ``b``, an atom's ``b`` and ``A``, the MDP's ``features``,
``transitions``, ``rewards``, ``sampling`` and ``behavior_transitions``) a
JSON array of numbers of a regular shape, and ``label`` a string, else
ValueError; an empty or null ``label`` keeps the family's own.  A boolean is
not a number.  A missing required field raises ValueError naming the object
and the field ("problem has no field 'A'", "atoms[0] has no field 'p'", "mdp
has no field 'discount'"), a file that is not JSON one naming its path, and
a mean ``A`` or MDP ``features`` that is not a matrix (2-D) one naming it,
with the shape the file gives.
"""

from __future__ import annotations

import dataclasses
import itertools
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


def _field(obj: dict, key: str, name: str):
    """obj[key]; ValueError naming the object ``name`` and the field when missing."""
    try:
        return obj[key]
    except KeyError:
        raise ValueError(f"{name} has no field {key!r}") from None


def _parse_json(text: str | bytes, name: str):
    """The JSON value of ``text``, or of a file's bytes in UTF-8, -16 or -32;
    ValueError naming ``name`` when it does not parse."""
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError of bytes
        raise ValueError(f"{name} is not valid JSON: {exc}") from None


def _number(value, name: str) -> float:
    """value as a float; ValueError naming ``name`` unless a JSON number (not a boolean)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {value!r}")
    return float(value)


def _numbers(value: list) -> bool:
    """Whether a list holds only JSON numbers, or only lists that do, at every
    depth; one nesting level at a time, so the test runs at C speed."""
    types = set(map(type, value))
    if list in types:
        return types == {list} and _numbers(list(itertools.chain.from_iterable(value)))
    return types <= {int, float}  # a bool's type is bool, not int


def _array(value, name: str) -> np.ndarray:
    """value as a float array; ValueError naming ``name`` unless a JSON array
    of numbers (not booleans), or of such arrays, of a regular shape."""
    if not (type(value) is list and _numbers(value)):
        raise ValueError(f"{name} must be a JSON array of numbers")
    try:
        return np.asarray(value, dtype=float)
    except ValueError:  # ragged nesting
        raise ValueError(f"{name} must be a JSON array of numbers of a regular shape") from None


def mdp_from_dict(spec: dict) -> SyntheticMdp:
    """The MDP of a ``td_mdp`` file's ``mdp`` object; optional fields may be
    omitted or null.  Array fields must be JSON arrays of numbers;
    ``SyntheticMdp`` checks their shapes and values."""
    spec = _object(spec, "mdp")
    fields = {k: _array(_field(spec, k, "mdp"), k) for k in ("features", "transitions", "rewards")}
    fields["discount"] = _number(_field(spec, "discount", "mdp"), "discount")
    for k in ("sampling", "behavior_transitions"):
        if spec.get(k) is not None:
            fields[k] = _array(spec[k], k)
    if spec.get("reward_noise_std") is not None:
        fields["reward_noise_std"] = _number(spec["reward_noise_std"], "reward_noise_std")
    return SyntheticMdp(**fields)


def load_problem(spec: dict) -> ProblemDistribution:
    """Build a ProblemDistribution from a problem-file dictionary."""
    kind = _object(spec, "problem").get("type")
    label = spec.get("label")
    if label is not None and not isinstance(label, str):
        raise ValueError(f"label must be a string, not {label!r}")
    if kind == "finite":
        if not isinstance(_field(spec, "atoms", "problem"), list):
            raise ValueError("atoms must be a JSON array")
        atoms = []
        for i, a in enumerate(spec["atoms"]):
            a = _object(a, f"atoms[{i}]")
            b, A, p = (_field(a, k, f"atoms[{i}]") for k in ("b", "A", "p"))
            b, A = _array(b, f"atoms[{i}].b"), _array(A, f"atoms[{i}].A")
            atoms.append(((b, A), _number(p, f"atoms[{i}].p")))
        p = make_finite_support(atoms)
    elif kind == "gaussian":
        p = make_gaussian_noise(
            _array(_field(spec, "A", "problem"), "A"),
            _array(_field(spec, "b", "problem"), "b"),
            _number(spec.get("sigma_A", 0.0), "sigma_A"),
            _number(spec.get("sigma_b", 0.0), "sigma_b"),
        )
    elif kind == "lower_bound":
        p = make_lower_bound_instance(
            _number(_field(spec, "lambda_min", "problem"), "lambda_min"),
            _number(_field(spec, "lambda_max", "problem"), "lambda_max"),
            _number(spec.get("sigma_b", 0.0), "sigma_b"),
        )
    elif kind == "td_mdp":
        instance = td_instance_from_dict(spec)
        p = instance.problem
    else:
        raise ValueError(f"unknown problem type {kind!r}")
    if spec.get("seed") is not None:
        p = dataclasses.replace(p, seed=spec["seed"])
    if label:
        p = dataclasses.replace(p, label=label)
    return p


def td_instance_from_dict(spec: dict) -> TdInstance:
    mdp = mdp_from_dict(_field(spec, "mdp", "problem"))
    algo = spec.get("algo", "td0")
    if algo == "td0":
        return td0_instance(mdp)
    if algo in ("gtd", "gtd2"):
        return gtd_instance(mdp, _number(spec.get("eta", 1.0), "eta"), variant=algo)
    raise ValueError(f"unknown algo {algo!r}")


def load_problem_file(path) -> ProblemDistribution:
    """Load a problem from a JSON file path; ValueError naming the path
    when the file is not JSON."""
    return load_problem(_parse_json(Path(path).read_bytes(), str(path)))
