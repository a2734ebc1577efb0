"""Pin the reference answers of the mmfp benchmark's instances.

    python3 perfbench/pin.py [WORKLOAD ...]

Run it from the root of a checkout. For every pool instance it solves once
without and once with the traced-run wrappers, requires the two answers to
agree bitwise, and records in ``references.json``: the digest of the
generated inputs, the final objectives, the iteration counts the API
reports, the run_mm tallies (calls, outer and inner iterations) and the
solve time. It also records the fingerprint (source digest and platform)
the counts belong to; ``run.py`` compares counts exactly only when its own
fingerprint matches.

The radar pool is found by scanning candidate drops in order and filing
each into the cost band its inner iteration count falls in, until every
band is full; how many candidates fell outside every band, and how many of
those took at least ``max_inner`` inner iterations in all, is recorded too. Workloads not named
keep their pins.
"""

from __future__ import annotations

import json
import os
import sys

import run


def _pin_one(workload, iid: str) -> dict:
    from tracer import Instrumentation, Tracer
    from workloads import digest

    plain = workload.solve(iid)
    tracer = Tracer()
    occ = tracer.set_instance(iid)
    with Instrumentation(tracer):
        traced = workload.solve(iid)
    problems = plain.errors + traced.errors + tracer.mm_errors.get(occ, [])
    if [v.hex() for v in plain.objectives] != [v.hex() for v in traced.objectives]:
        problems.append("traced answer differs from the untraced one")
    if problems:
        raise SystemExit(f"{workload.name} {iid}: " + "; ".join(problems))
    return {
        "input": digest(workload.params(iid)),
        "objectives": plain.objectives,
        "senses": plain.senses,
        "counts": plain.counts,
        "mm": tracer.mm[occ],
        "seconds": round(plain.seconds, 3),
    }


def _scan_radar(workload, limit: int = 400) -> dict:
    from mmfp.solver import SolveOptions

    cap = SolveOptions().max_inner
    strata = [[] for _ in workload.bands]
    outside = at_cap = 0
    k = 0
    while k < limit and any(len(s) < workload.per_band for s in strata):
        iid = f"r{k:04d}"
        k += 1
        out = workload.solve(iid)
        inner = out.counts[1]
        slot = next((b for b, (lo, hi) in enumerate(workload.bands) if lo <= inner <= hi), None)
        print(f"  {iid}: {inner} inner in {out.seconds:.2f} s -> band {slot}", flush=True)
        if slot is None:
            outside += 1
            at_cap += inner >= cap
        elif len(strata[slot]) < workload.per_band:
            strata[slot].append(iid)
    return {
        "strata": strata,
        "scan": {"candidates": k, "outside_bands": outside, "outside_at_max_inner": at_cap},
    }


def main(argv=None) -> int:
    os.environ.update({var: run.BLAS_THREADS for var in run.BLAS_VARS})
    sys.path.insert(0, str(run.SRC))
    import workloads

    names = (argv if argv is not None else sys.argv[1:]) or list(workloads.WORKLOADS)
    try:
        pins = workloads.load_pins()
    except FileNotFoundError:
        pins = {"workloads": {}}
    fp = run.fingerprint()
    if pins.get("fingerprint") not in (None, fp) and set(names) != set(workloads.WORKLOADS):
        raise SystemExit("the fingerprint changed: re-pin every workload")
    pins["fingerprint"] = fp
    for name in names:
        workload = workloads.WORKLOADS[name]
        print(f"pinning {name}", flush=True)
        entry = _scan_radar(workload) if name == "radar-drops" else {}
        instances = {}
        probe_pins = {"workloads": {name: entry}}
        for stratum in workload.strata(probe_pins):
            for iid in stratum:
                instances[iid] = _pin_one(workload, iid)
                print(f"  {iid}: {instances[iid]}", flush=True)
        entry["instances"] = instances
        pins["workloads"][name] = entry
        with open(workloads.PINS_PATH, "w", encoding="utf-8") as fh:
            json.dump(pins, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
