"""The answer ledger: a shipped answer may only get better.

``ANSWERS.json`` holds, for each of the seven shipped commands and each
row it writes, the objective with its sense and, where the CSV has one,
the row's certificate (``bound_ratio``, ``oracle_gap_rel``,
``*_oracle_gap_nats``). The test runs the seven commands through
``cli.main`` and fails when a row is worse than its entry by more than a
one-sided slack: ``tol * |entry|``, or ``tol`` itself for a gap, which is
already on the scale of its objective. ``tol`` is 1e-9, except 1e-4 for
the radar configs with fewer samples than radars, whose answers follow the
inner stop and reproduce only to about that (CHANGES.md). Better rows pass.

A change that improves answers rewrites the ledger from its own outputs,

    PYTHONPATH=src python tests/test_answers.py

and names the rows that moved. The tolerances never loosen.
"""

from __future__ import annotations

import csv
import json
import tempfile
from pathlib import Path

import pytest

from mmfp import cli

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "ANSWERS.json"
SHIPPED = (
    ("run", "aoi.yaml"), ("run", "radar.yaml"), ("run", "radar_orthogonal.yaml"), ("run", "secure.yaml"),
    ("sweep", "aoi_sweep.yaml"), ("sweep", "radar_sweep.yaml"), ("sweep", "secure_tradeoff.yaml"),
)
# the tracked columns of every experiment's summary.csv and sweep.csv
SENSES = {
    "final_sum_aoi": "min", "alg_sum_aoi": "min", "oracle_gap_rel": "min",
    "final_sum_crb": "min", "bound_ratio": "min",
    "direct_objective_nats": "max", "fast_objective_nats": "max",
    "direct_oracle_gap_nats": "min", "fast_oracle_gap_nats": "min",
}
# fewer samples than radars: these answers reproduce only to about 1e-4
RADAR_BELOW_M = {"run radar.yaml", "sweep radar_sweep.yaml"}


def slack(command: str, col: str, want: float) -> float:
    """How much worse than the ledger's ``want`` an answer may be."""
    tol = 1e-4 if command in RADAR_BELOW_M else 1e-9
    return tol * (1.0 if "gap" in col else abs(want))


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _rows(out: Path) -> dict[str, dict[str, str]]:
    """A run's summary as one row, or a sweep's rows keyed by their axis value."""
    if (out / "sweep.csv").exists():
        header, *body = _read_csv(out / "sweep.csv")
        return {f"{header[0]}={row[0]}": dict(zip(header, row)) for row in body}
    return {"summary": dict(_read_csv(out / "summary.csv")[1:])}


def shipped_answers(root: Path) -> dict:
    """Run the seven shipped commands into ``root`` and read their answers
    in the ledger's layout: command -> row -> column -> sense and value."""
    answers = {}
    for command, name in SHIPPED:
        out = root / f"{command}_{name}"
        assert cli.main([command, "--config", str(ROOT / "configs" / name), "--out", str(out)]) == 0
        answers[f"{command} {name}"] = {
            key: {col: {"sense": SENSES[col], "value": float(v)} for col, v in row.items() if col in SENSES}
            for key, row in _rows(out).items()
        }
    return answers


def shortfalls(ledger: dict, answers: dict) -> list[str]:
    """Every ledger entry that ``answers`` lacks or misses by more than its slack."""
    found = []
    for command, rows in ledger.items():
        for key, entries in rows.items():
            for col, entry in entries.items():
                got = answers.get(command, {}).get(key, {}).get(col)
                if got is None:
                    found.append(f"{command} [{key}] {col}: missing")
                    continue
                want = entry["value"]
                worse = got["value"] - want if entry["sense"] == "min" else want - got["value"]
                if not worse <= slack(command, col, want):  # NaN is worse
                    found.append(f"{command} [{key}] {col}: {got['value']!r}, ledger {want!r} ({entry['sense']})")
    return found


def _ledger() -> dict:
    return json.loads(LEDGER.read_text(encoding="utf-8"))


def test_no_shipped_answer_is_worse_than_the_ledger(tmp_path):
    assert shortfalls(_ledger(), shipped_answers(tmp_path)) == []


def test_ledger_tracks_every_shipped_command():
    ledger = _ledger()
    assert list(ledger) == [f"{command} {name}" for command, name in SHIPPED]
    assert all(rows and all(rows.values()) for rows in ledger.values())


def _moved(ledger: dict, command: str, key: str, col: str, by: float) -> dict:
    """A copy of ``ledger`` as answers, with one entry moved ``by`` slacks
    toward worse (``by > 0``) or better."""
    answers = json.loads(json.dumps(ledger))
    entry = answers[command][key][col]
    entry["value"] += by * slack(command, col, entry["value"]) * (1.0 if entry["sense"] == "min" else -1.0)
    return answers


@pytest.mark.parametrize("by, reported", [(2.0, True), (-1e3, False), (0.5, False)], ids=["worse", "better", "within"])
def test_each_entry_fails_only_when_worse_than_its_slack(by, reported):
    ledger = _ledger()
    for command, rows in ledger.items():
        for key, entries in rows.items():
            for col in entries:
                found = shortfalls(ledger, _moved(ledger, command, key, col, by))
                assert [f.startswith(f"{command} [{key}] {col}: ") for f in found] == [True] * reported


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        LEDGER.write_text(json.dumps(shipped_answers(Path(tmp)), indent=1) + "\n", encoding="utf-8")
