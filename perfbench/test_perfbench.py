"""Tests of the benchmark itself: seeded inputs, transparent wrappers,
well-formed spans and metric names."""

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Instrumentation, Tracer, layer_metrics  # noqa: E402

from mmfp import aoi, cli, radar, secure, solver  # noqa: E402
from mmfp.solver import SolveOptions  # noqa: E402

PINS = workloads.load_pins()
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    for seed in (0, 7):
        for j in range(3):
            ids = wl.pass_ids(PINS, seed, j)
            assert ids == wl.pass_ids(PINS, seed, j)
            assert [workloads.digest(wl.params(i)) for i in ids] == [
                workloads.digest(wl.params(i)) for i in ids
            ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pool_inputs_match_their_pins(name):
    wl = workloads.WORKLOADS[name]
    pinned = PINS["workloads"][name]["instances"]
    pool = [iid for stratum in wl.strata(PINS) for iid in stratum]
    assert sorted(pool) == sorted(pinned)
    for iid in pool:
        assert pinned[iid]["input"] == workloads.digest(wl.params(iid))


def test_seeds_draw_different_passes():
    wl = workloads.WORKLOADS["radar-drops"]
    draws = {tuple(wl.pass_ids(PINS, seed, 0)) for seed in range(8)}
    assert len(draws) > 1


def _answers(fn):
    tracer = Tracer()
    occ = tracer.set_instance("case")
    plain = fn()
    with Instrumentation(tracer):
        traced = fn()
    return plain, traced, tracer, occ


def _aoi():
    rates, trace = aoi.run_algorithm1(aoi.AoiScenario(4, 1.3))
    return rates.tolist(), trace.objectives.tolist()


def _secure():
    sc = secure.two_link_benchmark()
    p3, t3 = secure.run_algorithm3(sc)
    p4, t4 = secure.run_algorithm4(sc)
    return p3.tolist(), t3.objectives.tolist(), p4.tolist(), t4.objectives.tolist()


def _radar():
    waveforms, trace = radar.run_algorithm2(radar.benchmark_scenario(), SolveOptions(max_outer=3))
    return [w.tolist() for w in waveforms], trace.objectives.tolist()


@pytest.mark.parametrize("fn", [_aoi, _secure, _radar])
def test_wrappers_are_transparent(fn):
    originals = (solver.maximize_subproblem, aoi.run_mm, radar.RadarMmProblem, secure.secret_rate)
    plain, traced, tracer, occ = _answers(fn)
    assert plain == traced
    assert tracer.mm[occ][0] >= 1
    assert not tracer.mm_errors
    assert (solver.maximize_subproblem, aoi.run_mm, radar.RadarMmProblem, secure.secret_rate) == originals


def test_cli_is_transparent(tmp_path):
    config = str(HERE.parent / "configs" / "secure.yaml")

    def go(out):
        assert cli.main(["run", "--config", config, "--out", str(out)]) == 0
        return (out / "summary.csv").read_text()

    tracer = Tracer()
    tracer.set_instance("cli")
    plain = go(tmp_path / "plain")
    with Instrumentation(tracer):
        traced = go(tmp_path / "traced")
    assert plain == traced
    totals = tracer.totals()
    assert totals["cli.main"][0] == 1
    assert totals["cli.config"][0] == 2
    assert totals["secure.oracle"][0] == 1


def test_self_times_are_nonnegative_and_spans_nest():
    _, _, tracer, _ = _answers(_secure)
    t0 = np.frombuffer(tracer.t0)
    t1 = np.frombuffer(tracer.t1)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    instance = np.frombuffer(tracer.instance, dtype=np.int32)
    assert np.all(t1 >= t0)
    assert np.all(tracer.self_times() >= -1e-12)
    child = np.nonzero(parent >= 0)[0]
    assert child.size > 0
    assert np.all(t0[parent[child]] <= t0[child])
    assert np.all(t1[child] <= t1[parent[child]])
    assert np.all(instance[child] == instance[parent[child]])


def test_self_time_subtracts_direct_children_only():
    tracer = Tracer()
    tracer.set_instance("synthetic")
    with tracer.span("a"):
        with tracer.span("b"):
            with tracer.span("c"):
                pass
    dur = tracer.durations()
    own = tracer.self_times()
    assert own[0] == pytest.approx(dur[0] - dur[1], abs=1e-15)
    assert own[1] == pytest.approx(dur[1] - dur[2], abs=1e-15)
    assert own[2] == dur[2]


def test_metric_names_are_well_formed_and_match_the_run():
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    names += [w["name"] for w in BENCH["workloads"]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", n) for n in names)
    assert len(names) == len(set(names))
    run_info = SimpleNamespace(failed=0, attempted=1, shortfalls=[0.0])
    produced = set(layer_metrics(Tracer(), 1)) | set(run.quality(run_info))
    produced.add("tracing.overhead_ratio")
    assert produced == {m["name"] for m in BENCH["per_layer"]}
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
