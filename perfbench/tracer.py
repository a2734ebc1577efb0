"""Spans and wrappers for the traced run of the mmfp benchmark.

The traced run measures each layer from outside the program: it replaces
public functions of the mmfp modules with wrappers that record a span per
call, and puts a counting proxy around every problem object that reaches
``run_mm``. Nothing under ``src/`` knows about it; :class:`Instrumentation`
installs the wrappers and restores the originals afterwards.

A span records its name, start, end, the span open when it began (its
parent) and the instance being solved. Spans stay in memory until
:meth:`Tracer.save` writes them. A span's self time is its duration minus
the durations of its children.
"""

from __future__ import annotations

import math
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_clock = time.perf_counter


class Tracer:
    """In-memory span recorder plus named event counters."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.parent = array("q")
        self.instance = array("i")
        self.instances: list[str] = []
        self.counts: Counter = Counter()
        # Per solve (index into ``instances``): [run_mm calls, outer
        # iterations, inner iterations], and failed checks on its traces.
        self.mm: dict[int, list[int]] = {}
        self.mm_errors: dict[int, list[str]] = {}
        self._stack: list[int] = []
        self.current = -1

    def set_instance(self, iid: str) -> int:
        """Attribute the following spans to a new solve of ``iid``."""
        self.instances.append(iid)
        self.current = len(self.instances) - 1
        return self.current

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.t0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self.current)
        self.t1.append(math.nan)
        self._stack.append(i)
        self.t0.append(_clock())
        return i

    def close(self, i: int) -> None:
        self.t1[i] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return traced

    # -- analysis ----------------------------------------------------------
    def durations(self) -> np.ndarray:
        return np.frombuffer(self.t1, dtype=float) - np.frombuffer(self.t0, dtype=float)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return dur - child

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, total self seconds)."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        n = len(self.names)
        calls = np.bincount(ids, minlength=n)
        total = np.bincount(ids, weights=self.durations(), minlength=n)
        own = np.bincount(ids, weights=self.self_times(), minlength=n)
        return {
            name: (int(calls[k]), float(total[k]), float(own[k]))
            for k, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            instances=np.array(self.instances),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            t0=np.frombuffer(self.t0, dtype=float),
            t1=np.frombuffer(self.t1, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            instance=np.frombuffer(self.instance, dtype=np.int32),
        )


class _ProblemProxy:
    """Forwards the run_mm problem protocol, recording each call.

    ``run_mm`` and ``maximize_subproblem`` only use ``feasible``,
    ``objective``, ``update_aux`` and ``surrogate``; anything else is
    forwarded untouched.
    """

    def __init__(self, problem, layer: str, tracer: Tracer):
        from mmfp.solver import FeasibleSet

        self._problem = problem
        self.feasible = FeasibleSet(
            project=tracer.wrap("solver.project", problem.feasible.project),
            in_domain=tracer.wrap("solver.in_domain", problem.feasible.in_domain),
        )
        self.objective = tracer.wrap(f"{layer}.objective", problem.objective)
        self.update_aux = tracer.wrap(f"{layer}.update_aux", problem.update_aux)
        surrogate = problem.surrogate
        name = f"{layer}.surrogate"
        rejected = f"{layer}.surrogate.rejected"

        def traced_surrogate(x, aux):
            i = tracer.open(name)
            try:
                value, grad = surrogate(x, aux)
            finally:
                tracer.close(i)
            if value == -math.inf:
                tracer.counts[rejected] += 1
            return value, grad

        self.surrogate = traced_surrogate

    def __getattr__(self, attr):
        return getattr(self._problem, attr)


class Instrumentation:
    """Installs the traced-run wrappers on mmfp's modules; ``remove`` (or
    leaving the ``with`` block) puts every original back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _span(self, module, attr: str, name: str) -> None:
        self._patch(module, attr, self.tracer.wrap(name, getattr(module, attr)))

    def install(self) -> None:
        from mmfp import aoi, cli, fp_core, lagrangian_dual, radar, secure, solver

        tr = self.tracer
        layers = (
            (fp_core.MixedFpProblem, "fp_core"),
            (lagrangian_dual.LogRatioMmProblem, "lagrangian_dual"),
            (radar.RadarMmProblem, "radar"),
        )
        run_mm = solver.run_mm
        maximize = solver.maximize_subproblem

        def traced_run_mm(problem, x0, opts=None):
            layer = next(name for cls, name in layers if isinstance(problem, cls))
            i = tr.open("solver.run_mm")
            try:
                x, trace = run_mm(_ProblemProxy(problem, layer, tr), x0, opts)
            finally:
                tr.close(i)
            tally = tr.mm.setdefault(tr.current, [0, 0, 0])
            tally[0] += 1
            tally[1] += trace.outer_iterations
            tally[2] += sum(r.inner_iterations for r in trace.records)
            vals = trace.objectives
            slack = 1e-9 * (1.0 + np.abs(vals[:-1]))
            if not (np.all(np.isfinite(vals)) and np.all(vals[1:] >= vals[:-1] - slack)):
                tr.mm_errors.setdefault(tr.current, []).append(
                    "run_mm trace is not finite and nondecreasing"
                )
            return x, trace

        def traced_maximize(objective, feasible, x0, opts, step0=None):
            i = tr.open("solver.maximize_subproblem")
            try:
                x, info = maximize(objective, feasible, x0, opts, step0=step0)
            finally:
                tr.close(i)
            if info.iterations >= opts.max_inner and not info.converged:
                tr.counts["solver.inner_cap_hits"] += 1
            return x, info

        radar_problem = radar.RadarMmProblem

        class TracedRadarProblem(radar_problem):
            def __init__(self, scenario):
                with tr.span("radar.setup"):
                    super().__init__(scenario)

        sweep_start_points = secure.sweep_start_points

        def counted_starts(scenario):
            starts = sweep_start_points(scenario)
            tr.counts["secure.starts"] += len(starts)
            return starts

        secret_rate = secure.secret_rate

        def counted_rate(scenario, p, i):
            tr.counts["secure.rate_eval.calls"] += 1
            return secret_rate(scenario, p, i)

        self._patch(solver, "maximize_subproblem", traced_maximize)
        for module in (aoi, secure, radar):
            self._patch(module, "run_mm", traced_run_mm)
        self._patch(radar, "RadarMmProblem", TracedRadarProblem)
        self._span(aoi, "build_aoi_problem", "aoi.build")
        self._span(aoi, "baseline_equal_rate", "aoi.baseline")
        self._span(aoi, "baseline_max_rate", "aoi.baseline")
        self._span(aoi, "oracle_grid", "aoi.oracle")
        self._span(secure, "build_direct_problem", "secure.build")
        self._span(secure, "build_fast_problem", "secure.build")
        self._span(secure, "baseline_max_power_linear_search", "secure.baseline")
        self._span(secure, "oracle_grid_2d", "secure.oracle")
        self._patch(secure, "sweep_start_points", counted_starts)
        self._patch(secure, "secret_rate", counted_rate)
        self._span(cli, "load_config", "cli.config")
        self._span(cli, "validate_config", "cli.config")
        self._span(cli, "main", "cli.main")

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False


_MODEL_LAYERS = ("fp_core", "lagrangian_dual", "radar")
_MODEL_CALLS = ("objective", "update_aux", "surrogate")


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit), each a mean per traced pass."""
    totals = tracer.totals()
    counts = tracer.counts

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return 1e3 * totals.get(name, (0, 0.0, 0.0))[1]

    def self_ms(name):
        return 1e3 * totals.get(name, (0, 0.0, 0.0))[2]

    outer = sum(t[1] for t in tracer.mm.values())
    inner = sum(t[2] for t in tracer.mm.values())
    subproblems = calls("solver.maximize_subproblem")
    trials = sum(calls(f"{layer}.surrogate") for layer in _MODEL_LAYERS) - subproblems
    m: dict[str, tuple[float, str]] = {
        "solver.run_mm.calls": (calls("solver.run_mm"), "count"),
        "solver.outer_iters": (outer, "count"),
        "solver.inner_iters": (inner, "count"),
        "solver.maximize_subproblem.calls": (subproblems, "count"),
        "solver.maximize_subproblem.self_ms": (self_ms("solver.maximize_subproblem"), "ms"),
        "solver.project.calls": (calls("solver.project"), "count"),
        "solver.project.ms": (ms("solver.project"), "ms"),
        "solver.in_domain.calls": (calls("solver.in_domain"), "count"),
        "solver.inner_cap_hits": (counts["solver.inner_cap_hits"], "count"),
    }
    for layer in _MODEL_LAYERS:
        if layer == "radar":
            m["radar.setup.ms"] = (ms("radar.setup"), "ms")
        for call in _MODEL_CALLS:
            m[f"{layer}.{call}.calls"] = (calls(f"{layer}.{call}"), "count")
            m[f"{layer}.{call}.ms"] = (ms(f"{layer}.{call}"), "ms")
        m[f"{layer}.surrogate.rejected"] = (counts[f"{layer}.surrogate.rejected"], "count")
    m.update(
        {
            "aoi.build.ms": (ms("aoi.build"), "ms"),
            "aoi.baseline.ms": (ms("aoi.baseline"), "ms"),
            "aoi.oracle.ms": (ms("aoi.oracle"), "ms"),
            "secure.build.ms": (ms("secure.build"), "ms"),
            "secure.starts": (counts["secure.starts"], "count"),
            "secure.baseline.ms": (ms("secure.baseline"), "ms"),
            "secure.oracle.ms": (ms("secure.oracle"), "ms"),
            "secure.rate_eval.calls": (counts["secure.rate_eval.calls"], "count"),
            "cli.config.ms": (ms("cli.config"), "ms"),
            "cli.self_ms": (self_ms("cli.main"), "ms"),
        }
    )
    scaled = {name: (value / passes, unit) for name, (value, unit) in m.items()}
    # A ratio of two totals, not a per-pass amount.
    scaled["solver.accept_ratio"] = (inner / trials if trials > 0 else 0.0, "ratio")
    return scaled
