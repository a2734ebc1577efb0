"""Run one workload of the mmfp benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports mmfp from ``src/``. It
solves passes of the workload (see ``workloads.py``) for about
``--seconds``, checks every answer against the pins in ``references.json``,
and prints one JSON object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, measured with no wrappers,
over whole cycles of passes (a cycle solves every pool instance once):
``wall_s`` (median pass time), ``solve_ms_p50`` and ``solve_ms_max`` (the
median over passes of each pass's median and slowest instance),
``setup_s`` (median over fresh interpreters of the time from launch to
built problems) and ``peak_rss_mb`` (peak resident memory over the first
cycle).

``--trace 1`` alternates untraced and traced passes over the same
instances and reports the per-layer metrics of ``tracer.py`` (per traced
pass), the tracing overhead, the failure share and the objective
shortfall. Traced objectives must be bitwise identical to untraced ones.

Environment facts, failures and per-pass details go to earlier stdout
lines and to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# One BLAS thread: results and timings then do not depend on how busy the
# other core is, and the pinned iteration counts stay reproducible.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 7
_clock = time.perf_counter


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "mmfp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint() -> dict:
    """What must match the pin for iteration counts to repeat exactly."""
    import numpy as np
    from numpy._core._multiarray_umath import __cpu_features__

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    features = ",".join(sorted(k for k, on in __cpu_features__.items() if on))
    return {
        "src": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "cpu_features": hashlib.sha256(features.encode()).hexdigest()[:16],
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from launching a fresh interpreter until it has imported
    mmfp and built the first pass's scenarios and problems."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    tic = _clock()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        line = proc.stdout.readline()
        toc = _clock()
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return toc - tic


class Run:
    """Solves passes of one workload and keeps every check's verdict."""

    def __init__(self, workload, pins: dict, seed: int, exact_counts: bool):
        self.wl = workload
        self.pins = pins
        self.refs = pins["workloads"][workload.name]["instances"]
        self.seed = seed
        self.exact = exact_counts
        self.attempted = 0
        self.failures: list[str] = []
        self.shortfalls: list[float] = []
        self.passes: list[dict] = []
        # First answer seen per instance: later solves must repeat it bitwise.
        self._seen: dict[str, tuple] = {}

    def solve_pass(self, j: int, tracer=None) -> list[float]:
        """Solve pass ``j``; returns each instance's solve seconds."""
        ids = self.wl.pass_ids(self.pins, self.seed, j)
        times = []
        for iid in ids:
            occ = tracer.set_instance(iid) if tracer is not None else None
            self.attempted += 1
            tic = _clock()
            try:
                outcome = self.wl.solve(iid)
            except Exception as exc:  # any raise is a failed instance
                times.append(_clock() - tic)
                self.failures.append(f"{iid}: raised {type(exc).__name__}: {exc}")
            else:
                times.append(outcome.seconds)
                errors = self._check(iid, outcome, tracer, occ)
                if errors:
                    self.failures.append(f"{iid}: " + "; ".join(errors))
        self.passes.append({"pass": j, "traced": tracer is not None, "ids": ids, "seconds": times})
        return times

    def _check(self, iid, outcome, tracer, occ) -> list[str]:
        import workloads

        ref = self.refs.get(iid)
        errors, gap = workloads.judge(outcome, ref, self.exact)
        self.shortfalls.append(gap)
        if ref is not None and ref["input"] != workloads.digest(self.wl.params(iid)):
            errors.append("generated inputs differ from the pinned ones")
        mm = None
        if tracer is not None:
            mm = tracer.mm.get(occ)
            errors += tracer.mm_errors.get(occ, [])
            if self.exact and ref is not None and mm != ref["mm"]:
                errors.append(f"run_mm tallies {mm} differ from pinned {ref['mm']}")
        answer = ([v.hex() for v in outcome.objectives], outcome.counts)
        first = self._seen.setdefault(iid, (answer, mm))
        if first[0] != answer:
            errors.append("answer differs from an earlier solve of the same instance")
        if mm is not None:
            if first[1] is None:
                self._seen[iid] = (answer, mm)
            elif first[1] != mm:
                errors.append("run_mm tallies differ from an earlier traced solve")
        return errors

    @property
    def failed(self) -> int:
        return len(self.failures)


def timed_loop(seconds: float, step, min_calls: int = 1) -> None:
    """Call ``step(j)`` for j = 0, 1, ... while the next call would end less
    than half a call's time after ``seconds``; always ``min_calls`` times."""
    start = _clock()
    costs = []
    j = 0
    while True:
        tic = _clock()
        step(j)
        costs.append(_clock() - tic)
        j += 1
        if j >= min_calls and _clock() - start + statistics.median(costs) / 2 > seconds:
            return


def end_to_end(run: Run, args) -> dict:
    setup = []
    for _ in range(SETUP_PROBES):
        run.attempted += 1
        try:
            setup.append(measure_setup(args.workload, args.seed))
        except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
            run.failures.append(f"setup: {exc}")
    walls, p50s, maxes = [], [], []
    # Whole cycles only: a cycle of passes solves every pool instance at
    # least once, so the pass medians hardly depend on the seed.
    cycle = max(len(stratum) for stratum in run.wl.strata(run.pins))

    peak_kb = []

    def step(c):
        for j in range(c * cycle, (c + 1) * cycle):
            times = run.solve_pass(j)
            walls.append(sum(times))
            p50s.append(statistics.median(times))
            maxes.append(max(times))
        if c == 0:
            # The program's resident memory keeps creeping up over repeated
            # radar solves, so the peak is taken over the same work in
            # every run: the first cycle.
            peak_kb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)

    # At least two passes, so that no median rests on a single pass.
    timed_loop(args.seconds, step, min_calls=2 if cycle == 1 else 1)
    return {
        "wall_s": (statistics.median(walls), "s"),
        "solve_ms_p50": (1e3 * statistics.median(p50s), "ms"),
        "solve_ms_max": (1e3 * statistics.median(maxes), "ms"),
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "peak_rss_mb": (peak_kb[0] / 1024.0, "MB"),
    }


def per_layer(run: Run, args) -> dict:
    from tracer import Instrumentation, Tracer, layer_metrics
    from workloads import WORK_DIR

    tracer = Tracer()
    plain, traced = [], []

    def step(j):
        plain.append(sum(run.solve_pass(j)))
        with Instrumentation(tracer):
            traced.append(sum(run.solve_pass(j, tracer)))

    timed_loop(args.seconds, step)
    tracer.save(WORK_DIR / f"spans-{args.workload}.npz")
    metrics = layer_metrics(tracer, len(traced))
    metrics["tracing.overhead_ratio"] = (
        statistics.median(traced) / statistics.median(plain),
        "ratio",
    )
    metrics.update(quality(run))
    return metrics


def quality(run: Run) -> dict:
    """Failed share of attempts, and the mean shortfall of the answers that
    could be compared with their pins."""
    finite = [g for g in run.shortfalls if g != float("inf")]
    return {
        "failed_frac": (run.failed / max(run.attempted, 1), "ratio"),
        "objective_shortfall_rel": (sum(finite) / len(finite) if finite else 0.0, "ratio"),
    }


def main(argv=None) -> int:
    os.environ.update({var: BLAS_THREADS for var in BLAS_VARS})
    import workloads

    parser = argparse.ArgumentParser(description="Run one workload of the mmfp benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mmfp" / "__init__.py").is_file():
        print(f"perfbench: no mmfp sources under {SRC}; run from an mmfp checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    pins = workloads.load_pins()
    fp = fingerprint()
    run = Run(workloads.WORKLOADS[args.workload], pins, args.seed, fp == pins["fingerprint"])
    # Finish lazy imports before anything is timed.
    for iid in run.wl.pass_ids(pins, args.seed, 0):
        run.wl.setup(iid)
    metrics = per_layer(run, args) if args.trace else end_to_end(run, args)
    env = environment()

    workloads.WORK_DIR.mkdir(exist_ok=True)
    details = {
        "args": vars(args),
        "environment": env,
        "fingerprint": fp,
        "exact_counts": run.exact,
        "metrics": metrics,
        "failures": run.failures,
        "passes": run.passes,
    }
    out = workloads.WORK_DIR / f"result-{args.workload}-trace{args.trace}.json"
    out.write_text(json.dumps(details, indent=1), encoding="utf-8")

    print("environment " + json.dumps(env))
    if not run.exact:
        print("note: not the pinned source or platform; counts are checked for repeatability only")
    for failure in run.failures:
        print("FAIL " + failure)
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
