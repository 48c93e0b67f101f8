"""The verdict ledger: each suite row's verdict against a committed record.

The default config and the ``large-n`` and ``bicommutant`` workload
configs of ``perfbench/workloads.py`` (read, never changed) run at base
seed 20240901. Each row's (label, n, seed, check, passed,
hypothesis_met, note with its numbers masked) must equal its record in
``tests/data/verdicts.json``, and each config's rows must hash to the
digest recorded for it. Residual bits depend on the host's BLAS, so they
are not recorded (``util.moved_rows`` compares them between two reports
of one host). A change that moves a verdict on purpose rewrites the
record and lists the moved rows:

    PYTHONPATH=src python tests/test_ledger.py
"""

import copy
import hashlib
import importlib.util
import json
import os
import re
import sys

import pytest

from normlog.harness import default_config, run_suite

from util import moved_rows

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LEDGER = os.path.join(ROOT, "tests", "data", "verdicts.json")
SEED = 20240901
# verdict codes: passed, failed (hypothesis met), skipped
_CODES = {(True, True): "P", (False, True): "F", (False, False): "S"}
_NUMBER = re.compile(r"\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def configs() -> dict:
    """The configs the ledger records, by name."""
    path = os.path.join(ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_ledger_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return {"default": dict(default_config(), base_seed=SEED),
            **{name: workloads.WORKLOADS[name].config(SEED)
               for name in ("large-n", "bicommutant")}}


def _verdicts(report: dict) -> list:
    """Each row's (label, n, seed, check, passed, hypothesis_met, note
    with its numbers masked), in report order."""
    return [(r["family"], r["n"], r["seed"], r["check"], r["passed"],
             r["hypothesis_met"], _NUMBER.sub("#", r["notes"]))
            for r in report["results"]]


def ledger(report: dict) -> dict:
    """A report's record: the digest of its verdicts, its distinct masked
    notes, and per ``"<label> <n>"`` its seeds and, per check, one
    ``<code><note index>`` token per seed, each list a line of words."""
    verdicts = _verdicts(report)
    notes = sorted({v[6] for v in verdicts})
    rows: dict = {}
    for label, n, seed, check, passed, met, note in verdicts:
        group = rows.setdefault(f"{label} {n}", {"seeds": []})
        if str(seed) not in group["seeds"]:
            group["seeds"].append(str(seed))
        group.setdefault(check, []).append(
            f"{_CODES[passed, met]}{notes.index(note)}")
    rows = {key: {k: " ".join(v) for k, v in group.items()}
            for key, group in rows.items()}
    digest = hashlib.sha256(json.dumps(verdicts).encode()).hexdigest()
    return {"digest": digest, "notes": notes, "rows": rows}


def _unpack(record: dict) -> dict:
    """(label n, seed, check) -> (code, note) of a record."""
    out = {}
    for group, row in record["rows"].items():
        for check, tokens in row.items():
            if check == "seeds":
                continue
            for seed, token in zip(row["seeds"].split(), tokens.split(),
                                   strict=True):
                out[group, int(seed), check] = (token[0],
                                           record["notes"][int(token[1:])])
    return out


def moved_verdicts(old: dict, new: dict) -> list:
    """Each row whose code or note differs between two records, or that
    one of them lacks: ``(label n, seed, check, old, new)``."""
    a, b = _unpack(old), _unpack(new)
    return [(*key, a.get(key), b.get(key)) for key in {**a, **b}
            if a.get(key) != b.get(key)]


@pytest.fixture(scope="module")
def reports() -> dict:
    return {name: run_suite(config) for name, config in configs().items()}


@pytest.fixture(scope="module")
def recorded() -> dict:
    with open(LEDGER, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["default", "large-n", "bicommutant"])
def test_verdicts_match_the_ledger(name, reports, recorded):
    got = ledger(reports[name])
    assert moved_verdicts(recorded[name], got) == []
    assert got["digest"] == recorded[name]["digest"]


def test_a_flipped_verdict_moves_its_row_and_the_digest(reports, recorded):
    report = copy.deepcopy(reports["bicommutant"])
    row = next(r for r in report["results"] if r["passed"])
    row["passed"] = False
    got = ledger(report)
    assert got["digest"] != recorded["bicommutant"]["digest"]
    (moved,) = moved_verdicts(recorded["bicommutant"], got)
    assert moved[:3] == (f"{row['family']} {row['n']}", row["seed"],
                         row["check"])


def test_moved_rows_names_each_moved_row(reports):
    old = reports["bicommutant"]
    assert moved_rows(old, copy.deepcopy(old)) == []
    new = copy.deepcopy(old)
    flipped, noted, nudged = (new["results"][i] for i in (0, 7, 11))
    flipped["passed"] = not flipped["passed"]
    noted["notes"] += "!"
    key = next(iter(nudged["residuals"]))
    value = nudged["residuals"][key]  # one ulp up, or off zero
    nudged["residuals"][key] = value * (1 + 2 ** -52) if value else 1e-300
    dropped = new["results"].pop()
    assert moved_rows(old, new) == [
        (r["family"], r["n"], r["seed"], r["check"], what)
        for r, what in ((flipped, "verdict"), (noted, "note"),
                        (nudged, "residual bits"),
                        (dropped, "only in old"))]


if __name__ == "__main__":
    records = {name: ledger(run_suite(config))
               for name, config in configs().items()}
    if os.path.exists(LEDGER):
        with open(LEDGER, encoding="utf-8") as fh:
            old = json.load(fh)
        for name, record in records.items():
            for moved in moved_verdicts(old.get(name, {"rows": {}}), record):
                print(name, *moved)
    with open(LEDGER, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")
