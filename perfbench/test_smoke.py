"""Smoke test of the benchmark at a tiny corpus size.

    python3 -m pytest -q perfbench

Runs every workload untraced and traced on a 36-file corpus and checks
that each metric named in BENCHMARK.json is emitted with its unit, that
the scans pass their checks (one verdict per file, hex decisions equal
to raw ones), and that the failure paths fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, list[str]]:
    p = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return p.returncode, p.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted(workload, trace):
    code, lines = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                        "--trace", trace, "--files", "36")
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in wanted)
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"]
    if trace == "1" and workload != "train":
        assert 0.8 < got["bench.trace_accounting_ratio"]["value"] < 1.25


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    code, lines = bench("--workload", "scan-raw", "--seed", "1", "--seconds", "1",
                        "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert not any(line.startswith("{") for line in lines)


def test_corpus_digest_mismatch_fails(monkeypatch, tmp_path, capsys):
    pins = tmp_path / "pins.json"
    pins.write_text(json.dumps({"files": 36, "sha256": {"3": "0" * 64}}))
    monkeypatch.setattr(run, "PINS", pins)
    code = run.main(["--workload", "train", "--seed", "3", "--seconds", "1", "--files", "36"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def _verdict(digest: str, flagged: bool) -> str:
    return json.dumps({
        "digest": digest, "ents_verdict": flagged, "ents_score": 0.5,
        "slamm": {"cx": flagged, "cd": True, "cmse": True, "overall": flagged,
                  "diagnostics": {}},
        "itect_verdict": flagged, "ents_abstained": False, "slamm_abstained": False,
        "timings": {"ents": 0.1},
    })


def test_check_job_counts_missing_and_disagreeing(tmp_path):
    out = tmp_path / "v.jsonl"
    out.write_text(_verdict("a", True) + "\n" + _verdict("b", False) + "\n")
    ok = run.Proc(wall=1.0, rss_mib=1.0, code=0)
    tally = run.Tally()
    decisions, _ = run.check_job(ok, out, {"a", "b"}, None, tally, "raw")
    assert tally.failed == 0 and len(decisions) == 2

    reference = dict(decisions)
    reference["b"] = run.decision(json.loads(_verdict("b", True)))
    run.check_job(ok, out, {"a", "b", "c"}, reference, tally, "hex")
    assert tally.failed == 2  # "c" missing, "b" disagrees

    failed_exit = run.Proc(wall=1.0, rss_mib=1.0, code=2)
    run.check_job(failed_exit, out, {"a", "b"}, None, tally, "raw")
    assert tally.failed == 4


def test_decision_digest_ignores_scores_and_timings():
    a = json.loads(_verdict("a", True))
    b = dict(a, ents_score=0.9, timings={"ents": 7.0})
    assert run.decision_digest({"a": run.decision(a)}) == run.decision_digest(
        {"a": run.decision(b)}
    )
