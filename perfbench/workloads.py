"""Seeded workloads of the mmfp benchmark.

Every workload draws its instances from a small pool whose answers are
pinned in ``references.json`` (see ``pin.py``). A pool is split into strata
of similar cost, and one *pass* solves one instance from each stratum. Pass
``j`` of seed ``s`` takes the ``j``-th member of a seed-drawn permutation of
each stratum, so the same seed always gives the same inputs, while the cost
of a pass stays nearly the same across seeds.

The program only ever sees scenarios built here (``RadarScenario``
objects) or the shipped configs handed to ``mmfp.cli.main``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PINS_PATH = Path(__file__).resolve().parent / "references.json"
# Where a run writes everything it leaves behind (CLI outputs, spans, details).
WORK_DIR = ROOT / ".perfbench"

# An instance fails when its final objective is worse than the pinned one
# by more than this share of the pinned value.
OBJECTIVE_TOL = 1e-6
# Slack of the monotone-trace check, the same as run_mm's own guard.
MONOTONE_SLACK = 1e-9
# An answer recomputed from the returned point must match the reported one.
RECOMPUTE_TOL = 1e-9


@dataclass
class Outcome:
    """What one instance solve produced, plus the failed checks on it.

    ``objectives`` are the final objectives compared against the pins, in
    the senses given by ``senses`` ("min" or "max"). ``counts`` are the
    iteration counts the public API reports (None where it reports none).
    ``seconds`` covers only the calls into the program.
    """

    objectives: list[float]
    senses: list[str]
    counts: list[int] | None
    seconds: float
    errors: list[str] = field(default_factory=list)


def monotone(values, sense: str) -> bool:
    """Whether a trace never moves against ``sense`` beyond run_mm's slack."""
    vals = [float(v) for v in values]
    for prev, cur in zip(vals, vals[1:]):
        slack = MONOTONE_SLACK * (1.0 + abs(prev))
        if (sense == "min" and cur > prev + slack) or (sense == "max" and cur < prev - slack):
            return False
    return True


def digest(params) -> str:
    """Short stable digest of an instance's generated parameters."""
    text = json.dumps(params, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Workload:
    """A pool of instances in cost strata, with generation and checks."""

    name = ""

    def strata(self, pins: dict) -> list[list[str]]:
        """Instance ids grouped into strata of similar cost."""
        raise NotImplementedError

    def params(self, iid: str) -> dict:
        """The generated inputs of one instance, as plain data."""
        raise NotImplementedError

    def setup(self, iid: str) -> None:
        """Build the scenario and problem objects of one instance."""
        raise NotImplementedError

    def solve(self, iid: str) -> Outcome:
        raise NotImplementedError

    def pass_ids(self, pins: dict, seed: int, j: int) -> list[str]:
        """The instances of pass ``j`` for ``seed``, one per stratum."""
        ids = []
        for s, stratum in enumerate(self.strata(pins)):
            order = np.random.default_rng([seed % 2**63, s]).permutation(len(stratum))
            ids.append(stratum[int(order[j % len(stratum)])])
        return ids


# ---------------------------------------------------------------------------
# radar-drops: run_algorithm2 on random radar sets
# ---------------------------------------------------------------------------


class RadarDrops(Workload):
    """Random radar sets with M=8, n_tx=n_rx in 8..16 and L=8.

    Inner iteration counts of random drops are heavy-tailed, so ``pin.py``
    scans candidate drops in order and files each into the band its inner
    iteration count falls in, until every band holds ``per_band`` drops.
    Drops outside every band (the slow tail; ``references.json`` records
    how many were seen) are not used: one of them can take a whole run.
    """

    name = "radar-drops"
    m_radars = 8
    l_samples = 8
    # (lowest, highest) total inner iterations of each cost band.
    bands = ((15, 30), (60, 140), (160, 220), (430, 720), (800, 1300))
    per_band = 3

    def strata(self, pins):
        return pins["workloads"][self.name]["strata"]

    def params(self, iid):
        m = self.m_radars
        rng = np.random.default_rng([3, int(iid[1:])])
        n = [int(v) for v in rng.integers(8, 17, size=m)]
        theta = [float(v) for v in rng.uniform(-0.45, 0.45, size=m) * math.pi]
        mag = rng.uniform(0.5, 1.5, size=(m, m))
        phase = rng.uniform(0.0, 2.0 * math.pi, size=(m, m))
        beta = [[[float(v.real), float(v.imag)] for v in row] for row in mag * np.exp(1j * phase)]
        p_dbm = [float(v) for v in rng.uniform(10.0, 20.0, size=m)]
        return {"n": n, "theta": theta, "beta": beta, "p_dbm": p_dbm, "l": self.l_samples}

    def _scenario(self, iid):
        from mmfp import radar
        from mmfp.units import dbm_to_mw

        p = self.params(iid)
        return radar.RadarScenario(
            n_tx=tuple(p["n"]),
            n_rx=tuple(p["n"]),
            theta=tuple(p["theta"]),
            beta=tuple(tuple(complex(re, im) for re, im in row) for row in p["beta"]),
            sigma2=(1.0,) * self.m_radars,
            power=tuple(float(dbm_to_mw(v)) for v in p["p_dbm"]),
            l_samples=p["l"],
        )

    def setup(self, iid):
        from mmfp import radar

        radar.RadarMmProblem(self._scenario(iid))

    def solve(self, iid):
        from mmfp import radar

        sc = self._scenario(iid)
        tic = time.perf_counter()
        waveforms, trace = radar.run_algorithm2(sc)
        seconds = time.perf_counter() - tic
        final = float(trace.records[-1].objective)
        errors = []
        if not monotone(trace.objectives, "min"):
            errors.append("sum-CRB trace increases")
        powers = [float(np.real(np.vdot(s, s))) for s in waveforms]
        if any(pw > cap * (1.0 + 1e-9) for pw, cap in zip(powers, sc.power)):
            errors.append("a waveform exceeds its power budget")
        if _rel_gap(radar.sum_crb(sc, waveforms), final) > RECOMPUTE_TOL:
            errors.append("sum_crb at the returned waveforms differs from the trace")
        counts = [trace.outer_iterations, sum(r.inner_iterations for r in trace.records)]
        return Outcome([final], ["min"], counts, seconds, errors)


# ---------------------------------------------------------------------------
# shipped-configs: mmfp run/sweep on the configs in configs/
# ---------------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _summary(path: Path) -> dict:
    return {row["key"]: row["value"] for row in _read_csv(path)}


def _trace(path: Path) -> tuple[list[float], int]:
    rows = _read_csv(path)
    return [float(r["objective"]) for r in rows], sum(int(r["inner_iters"]) for r in rows)


class ShippedConfigs(Workload):
    """The shipped experiments through ``mmfp.cli.main``. Their inputs are
    the fixed configs, so the seed does not apply: every pass runs the same
    five commands."""

    name = "shipped-configs"
    commands = {
        "run-aoi": ("run", "aoi.yaml"),
        "sweep-aoi": ("sweep", "aoi_sweep.yaml"),
        "run-radar": ("run", "radar.yaml"),
        "sweep-radar": ("sweep", "radar_sweep.yaml"),
        "run-secure": ("run", "secure.yaml"),
    }

    def strata(self, pins):
        return [[iid] for iid in self.commands]

    def _config(self, iid) -> Path:
        return ROOT / "configs" / self.commands[iid][1]

    def params(self, iid):
        return {"command": self.commands[iid][0], "config": self._config(iid).read_text()}

    def setup(self, iid):
        from mmfp import cli

        cmd, _ = self.commands[iid]
        cli.validate_config(cli.load_config(self._config(iid)), for_sweep=cmd == "sweep")

    def solve(self, iid):
        from mmfp import cli

        cmd, _ = self.commands[iid]
        WORK_DIR.mkdir(exist_ok=True)
        out = Path(tempfile.mkdtemp(prefix=f"{iid}-", dir=WORK_DIR))
        try:
            tic = time.perf_counter()
            code = cli.main([cmd, "--config", str(self._config(iid)), "--out", str(out)])
            seconds = time.perf_counter() - tic
            if code != 0:
                return Outcome([], [], None, seconds, [f"mmfp {cmd} exited with {code}"])
            return self._read_outputs(iid, out, seconds)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _read_outputs(self, iid, out: Path, seconds: float) -> Outcome:
        errors = []
        if iid in ("run-aoi", "run-radar"):
            s = _summary(out / "summary.csv")
            values, inner = _trace(out / "trace.csv")
            if not monotone(values, "min"):
                errors.append("trace.csv objective increases")
            key = "final_sum_aoi" if iid == "run-aoi" else "final_sum_crb"
            objectives, senses = [float(s[key])], ["min"]
            counts = [int(s["outer_iterations"]), inner]
        elif iid == "run-secure":
            s = _summary(out / "summary.csv")
            objectives, senses, counts = [], [], []
            for method in ("direct", "fast"):
                values, inner = _trace(out / f"trace_{method}.csv")
                if not monotone(values, "max"):
                    errors.append(f"trace_{method}.csv objective decreases")
                objectives.append(float(s[f"{method}_objective_nats"]))
                senses.append("max")
                counts += [int(s[f"{method}_outer_iterations"]), inner]
        else:
            rows = _read_csv(out / "sweep.csv")
            key = "alg_sum_aoi" if iid == "sweep-aoi" else "final_sum_crb"
            objectives = [float(r[key]) for r in rows]
            senses = ["min"] * len(rows)
            counts = [int(r["outer_iterations"]) for r in rows]
        if not all(math.isfinite(v) for v in objectives):
            errors.append("non-finite objective in the CSV output")
        return Outcome(objectives, senses, counts, seconds, errors)


WORKLOADS = {w.name: w for w in (RadarDrops(), ShippedConfigs())}


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def shortfall(outcome: Outcome, ref: dict) -> list[float]:
    """Relative shortfall of each objective against its pin (0 if better)."""
    out = []
    for value, pinned, sense in zip(outcome.objectives, ref["objectives"], outcome.senses):
        gap = (pinned - value) if sense == "max" else (value - pinned)
        out.append(max(0.0, gap / max(abs(pinned), 1e-300)) if math.isfinite(value) else math.inf)
    return out


def judge(outcome: Outcome, ref: dict | None, exact_counts: bool) -> tuple[list[str], float]:
    """Failed checks of one outcome against its pin, and its mean shortfall."""
    errors = list(outcome.errors)
    if ref is None:
        return errors + ["no pinned reference for this instance"], math.inf
    if len(outcome.objectives) != len(ref["objectives"]) or outcome.senses != ref["senses"]:
        return errors + ["objective layout differs from the pin"], math.inf
    gaps = shortfall(outcome, ref)
    if any(g > OBJECTIVE_TOL for g in gaps):
        errors.append(f"objective misses its pin by {max(gaps):.3g} (tolerance {OBJECTIVE_TOL:g})")
    if exact_counts and outcome.counts is not None and outcome.counts != ref["counts"]:
        errors.append(f"iteration counts {outcome.counts} differ from pinned {ref['counts']}")
    return errors, (sum(gaps) / len(gaps) if gaps else 0.0)
