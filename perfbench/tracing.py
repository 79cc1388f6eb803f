"""In-memory spans around calls into ``lsalab``, and the per-layer metrics.

A :class:`Tracer` records one span per call: name, start, end, the span that
was open when the call began (its parent) and a few attributes such as the
number of draws a ``sample`` call returned.  :meth:`Tracer.patch` replaces
public functions at every ``lsalab`` module attribute that binds them, so
calls made by the package itself (``cli`` calling ``run_mse``, ``transform``
calling ``transform_moments``) are seen, and restores them on exit.
``ProblemDistribution.sample`` is a dataclass field rather than a module
function, so the constructors' results are rebuilt with ``dataclasses.replace``
around a traced sampler.

Nothing here changes what the program computes; spans live in a list until
:meth:`Tracer.write` dumps them as JSON lines at the end of a pass.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

LSALAB_MODULES = (
    "lsalab",
    "lsalab.bounds",
    "lsalab.cli",
    "lsalab.engine",
    "lsalab.problem_io",
    "lsalab.problems",
    "lsalab.spectral",
    "lsalab.td",
    "lsalab.transform",
    "lsalab.tuner",
)

#: the CLI subcommands timed per invocation, in ``cli.<name>_ms``
CLI_COMMANDS = ("td", "rho", "transform", "bound", "tune", "simulate")

#: every per-layer metric a traced pass reports, with its unit
LAYER_METRICS = {
    "problems.sample_s": "s",
    "problems.draws": "count",
    "problems.ns_per_draw": "ns",
    "problems.sample_mb": "MB",
    "problems.construct_s": "s",
    "engine.run_mse_s": "s",
    "engine.rep_steps": "count",
    "engine.ns_per_rep_step": "ns",
    "engine.self_s": "s",
    "engine.draws_per_rep_step": "ratio",
    "engine.alive_frac": "ratio",
    "tuner.calls": "count",
    "tuner.tune_s": "s",
    "tuner.p50_ms": "ms",
    "tuner.p90_ms": "ms",
    "tuner.ns_per_step": "ns",
    "tuner.halvings": "count",
    "tuner.aborts": "count",
    "transform.transform_problem_s": "s",
    "transform.hurwitz_to_pd_s": "s",
    "transform.transform_moments_s": "s",
    "transform.kappa_U": "ratio",
    "transform.mc_draws": "count",
    "td.instance_s": "s",
    "problem_io.load_s": "s",
    "spectral.report_s": "s",
    "bounds.curve_s": "s",
    **{f"cli.{name}_ms": "ms" for name in CLI_COMMANDS},
    "cli.nonzero_exits": "count",
    "trace.overhead_s": "s",
}


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans of one single-threaded pass."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._open[-1] if self._open else None
        rec = Span(name=name, start=self.clock(), parent=parent, attrs=attrs)
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield rec
        except BaseException as exc:
            rec.attrs["error"] = type(exc).__name__
            raise
        finally:
            rec.end = self.clock()
            self._open.pop()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "attrs": s.attrs}
                fh.write(json.dumps(row, default=str) + "\n")

    # --- wrappers ---------------------------------------------------------

    def traced_sample(self, sample):
        def wrapped(rng, shape=()):
            with self.span("problems.sample") as rec:
                b, A = sample(rng, shape)
                rec.attrs["draws"] = math.prod(A.shape[:-2])
                rec.attrs["bytes"] = b.nbytes + A.nbytes
            return b, A

        return wrapped

    def _wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; the hooks add attributes from its arguments and result."""

        def wrapped(*args, **kwargs):
            with self.span(name) as rec:
                if before is not None:
                    before(rec, args, kwargs)
                out = fn(*args, **kwargs)
                if after is not None:
                    out = after(rec, args, kwargs, out)
            return out

        wrapped.__wrapped__ = fn
        return wrapped

    def _wrappers(self) -> dict:
        """Each traced lsalab function, mapped to its wrapper."""
        lsalab = importlib.import_module("lsalab")

        def cfg_of(args, kwargs):
            return args[1] if len(args) > 1 else kwargs["cfg"]

        def with_sample(rec, args, kwargs, p):
            return dataclasses.replace(p, sample=self.traced_sample(p.sample))

        def td_with_sample(rec, args, kwargs, inst):
            return dataclasses.replace(inst, problem=with_sample(rec, args, kwargs, inst.problem))

        def run_mse_after(rec, args, kwargs, curve):
            cfg = cfg_of(args, kwargs)
            rec.attrs["rep_steps"] = cfg.n_replications * cfg.horizon
            rec.attrs["alive_rep_steps"] = alive_rep_steps(
                curve.times, curve.n_diverged, cfg.n_replications, cfg.horizon
            )
            return curve

        def tune_before(rec, args, kwargs):
            # recorded before the call, so an aborted tune keeps its horizon
            rec.attrs["horizon"] = cfg_of(args, kwargs).horizon

        def tune_after(rec, args, kwargs, trace):
            rec.attrs["halvings"] = len(trace.events)
            return trace

        def kappa_after(rec, args, kwargs, tr):
            rec.attrs["kappa_U"] = float(tr.kappa_U)
            return tr

        w = self._wrap
        return {
            lsalab.make_gaussian_noise: w("problems.construct", lsalab.make_gaussian_noise, after=with_sample),
            lsalab.td0_instance: w("td.instance", lsalab.td0_instance, after=td_with_sample),
            lsalab.gtd_instance: w("td.instance", lsalab.gtd_instance, after=td_with_sample),
            lsalab.load_problem_file: w("problem_io.load", lsalab.load_problem_file),
            lsalab.run_mse: w("engine.run_mse", lsalab.run_mse, after=run_mse_after),
            lsalab.tune: w("tuner.tune", lsalab.tune, tune_before, tune_after),
            lsalab.transform_problem: w("transform.transform_problem", lsalab.transform_problem),
            lsalab.hurwitz_to_pd: w("transform.hurwitz_to_pd", lsalab.hurwitz_to_pd, after=kappa_after),
            lsalab.transform_moments: w("transform.transform_moments", lsalab.transform_moments),
            lsalab.spectral_report: w("spectral.report", lsalab.spectral_report),
            lsalab.bound_curve: w("bounds.curve", lsalab.bound_curve),
        }

    @contextmanager
    def patch(self):
        """Install the wrappers at every lsalab name bound to a traced function."""
        plan = self._wrappers()
        undo = []
        for mod_name in LSALAB_MODULES:
            mod = importlib.import_module(mod_name)
            for attr, value in list(vars(mod).items()):
                wrapper = plan.get(value) if callable(value) else None
                if wrapper is not None:
                    undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, value in reversed(undo):
                setattr(mod, attr, value)


def alive_rep_steps(times, n_diverged, n_replications: int, horizon: int) -> int:
    """Replication-steps before divergence, at the curve's record resolution.

    A replication counted as diverged at record time t_i is taken to have
    diverged right after t_{i-1}; steps after the last record count as alive
    for the replications alive at it.
    """
    total = 0
    prev = 0
    for t, n_div in zip(times, n_diverged):
        total += (n_replications - int(n_div)) * (int(t) - prev)
        prev = int(t)
    alive_end = n_replications - (int(n_diverged[-1]) if len(n_diverged) else 0)
    return total + alive_end * (horizon - prev)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _has_ancestor(spans: list[Span], s: Span, name: str) -> bool:
    i = s.parent
    while i is not None:
        if spans[i].name == name:
            return True
        i = spans[i].parent
    return False


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass (all of LAYER_METRICS but the overhead).

    Layers a workload does not enter read 0.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    selfs = self_times(spans)

    def total(name):
        return sum(s.duration for s in by_name.get(name, ()))

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    samples = by_name.get("problems.sample", [])
    draws = sum(s.attrs["draws"] for s in samples)
    sample_s = total("problems.sample")
    runs = by_name.get("engine.run_mse", [])
    rep_steps = sum(s.attrs.get("rep_steps", 0) for s in runs)
    run_mse_s = total("engine.run_mse")
    engine_draws = sum(s.attrs["draws"] for s in samples if _has_ancestor(spans, s, "engine.run_mse"))
    tunes = by_name.get("tuner.tune", [])
    tune_ms = [s.duration * 1e3 for s in tunes]
    tune_steps = sum(s.attrs["horizon"] for s in tunes)
    kappas = [s.attrs["kappa_U"] for s in by_name.get("transform.hurwitz_to_pd", []) if "kappa_U" in s.attrs]
    cli_spans = [s for s in spans if s.name.startswith("cli.")]

    out = {
        "problems.sample_s": sample_s,
        "problems.draws": draws,
        "problems.ns_per_draw": ratio(sample_s, draws, 1e9),
        "problems.sample_mb": sum(s.attrs["bytes"] for s in samples) / 1e6,
        "problems.construct_s": total("problems.construct"),
        "engine.run_mse_s": run_mse_s,
        "engine.rep_steps": rep_steps,
        "engine.ns_per_rep_step": ratio(run_mse_s, rep_steps, 1e9),
        "engine.self_s": sum(selfs[i] for i, s in enumerate(spans) if s.name == "engine.run_mse"),
        "engine.draws_per_rep_step": ratio(engine_draws, rep_steps),
        "engine.alive_frac": ratio(sum(s.attrs.get("alive_rep_steps", 0) for s in runs), rep_steps),
        "tuner.calls": len(tunes),
        "tuner.tune_s": total("tuner.tune"),
        "tuner.p50_ms": percentile(tune_ms, 50),
        "tuner.p90_ms": percentile(tune_ms, 90),
        "tuner.ns_per_step": ratio(total("tuner.tune"), tune_steps, 1e9),
        "tuner.halvings": sum(s.attrs.get("halvings", 0) for s in tunes),
        "tuner.aborts": sum(1 for s in tunes if s.attrs.get("error") == "NoStableStepSizeError"),
        "transform.transform_problem_s": total("transform.transform_problem"),
        "transform.hurwitz_to_pd_s": total("transform.hurwitz_to_pd"),
        "transform.transform_moments_s": total("transform.transform_moments"),
        "transform.kappa_U": max(kappas, default=0.0),
        "transform.mc_draws": sum(
            s.attrs["draws"] for s in samples if _has_ancestor(spans, s, "transform.transform_moments")
        ),
        "td.instance_s": total("td.instance"),
        "problem_io.load_s": total("problem_io.load"),
        "spectral.report_s": total("spectral.report"),
        "bounds.curve_s": total("bounds.curve"),
        "cli.nonzero_exits": sum(1 for s in cli_spans if s.attrs.get("exit") != 0),
    }
    for cmd in CLI_COMMANDS:
        ms = [s.duration * 1e3 for s in by_name.get(f"cli.{cmd}", [])]
        out[f"cli.{cmd}_ms"] = statistics.median(ms) if ms else 0.0
    return out
