"""Smoke tests for the benchmark itself, on the few-hundred-PR smoke shape.

    PYTHONPATH=src python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from checks import COUNTED, artifact_digest, check_outputs
from corpusgen import DATA_END, SHAPES, generate
from tracing import LAYER_TIMES, Tracer, run_job, self_times

from prsafety import cli, corpus

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
ARGV = ["run", "--corpus", "corpus", "--out", "out", "--data-end", DATA_END]


def _smoke(directory: Path, seed: int = 5) -> dict:
    return generate(SHAPES["smoke"], seed, directory / "corpus")


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_seeded_and_loads_with_the_injected_errors(tmp_path):
    counts = _smoke(tmp_path / "a")
    _smoke(tmp_path / "b")
    generate(SHAPES["smoke"], 6, tmp_path / "c" / "corpus")
    assert _files(tmp_path / "a" / "corpus") == _files(tmp_path / "b" / "corpus")
    assert _files(tmp_path / "a" / "corpus") != _files(tmp_path / "c" / "corpus")

    loaded = corpus.load_corpus(tmp_path / "a" / "corpus")
    assert {**loaded.corpus.counts(), "ingest_errors": len(loaded.errors)} == {
        k: counts[k] for k in COUNTED
    }
    bodies = [c.body for pull in loaded.corpus.pulls for c in pull.comments]
    assert counts["non_ascii_comments"] == sum(1 for b in bodies if not b.isascii()) > 0
    assert 0 < counts["emoji_comments"] < counts["non_ascii_comments"]
    # Written as corpus.save_corpus writes: ASCII bytes, non-ASCII text escaped.
    assert all(data.isascii() for data in _files(tmp_path / "a" / "corpus").values())
    assert counts["ingest_errors"] == 6  # one per file, two in pulls.jsonl
    assert len({e.file for e in loaded.errors}) == 5


def test_output_checks_pass_on_a_good_run_and_catch_bad_ones(tmp_path, monkeypatch):
    expected = _smoke(tmp_path)
    monkeypatch.chdir(tmp_path)
    assert cli.main(ARGV) == 0
    out = tmp_path / "out"
    assert check_outputs(0, out, expected) == []
    first = artifact_digest(out)
    shutil.rmtree(out)
    assert cli.main(ARGV) == 0
    assert artifact_digest(out) == first

    assert check_outputs(1, out, expected) == ["exit code 1"]
    wrong = {**expected, "ingest_errors": expected["ingest_errors"] + 1}
    assert check_outputs(0, out, wrong) == [
        f"row_counts.ingest_errors is {expected['ingest_errors']}, expected {wrong['ingest_errors']}"
    ]
    (out / "model_2.json").write_text(json.dumps({"converged": False}), "utf-8")
    assert check_outputs(0, out, expected) == ["model 2 did not converge"]
    assert artifact_digest(out) != first


def test_self_times_subtract_direct_children():
    tracer = Tracer()
    leaf = tracer._wrap("x.leaf", lambda: sum(range(1000)))
    root = tracer._wrap("x.root", lambda: (leaf(), leaf()))
    root()
    spans = tracer.spans
    assert [s.name for s in spans] == ["x.root", "x.leaf", "x.leaf"]
    assert [s.parent for s in spans] == [None, 0, 0]
    durations = [s.end - s.start for s in spans]
    assert self_times(spans) == [durations[0] - durations[1] - durations[2]] + durations[1:]


def test_missing_module_function_is_reported():
    tracer = Tracer()
    assert tracer.install(("corpus.load_corpus", "corpus.no_such_stage")) == ["corpus.no_such_stage"]
    tracer.uninstall()
    assert corpus.load_corpus.__module__ == "prsafety.corpus"
    assert not hasattr(corpus.load_corpus, "__wrapped__")


def test_traced_run_nests_spans_and_matches_untraced_bytes(tmp_path, monkeypatch):
    expected = _smoke(tmp_path)
    monkeypatch.chdir(tmp_path)
    job = {"argv": ARGV, "out": "out", "expected": expected, "seconds": 0,
           "spans_path": str(tmp_path / "spans.jsonl")}
    summary = run_job(job)
    assert summary["missing"] == [] and summary["trace_problems"] == []
    assert [c["problems"] for c in summary["checks"]] == [[], [], []]  # warm-up, untraced, traced
    assert len({c["digest"] for c in summary["checks"]}) == 1
    (metrics,) = summary["runs"]
    assert set(LAYER_TIMES) <= set(metrics)
    assert metrics["corpus.errors"] == expected["ingest_errors"]
    assert metrics["glm.separations"] == 1
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [s["parent"] for s in spans].count(None) == 1  # one root: cli.main


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_command_reports_every_declared_metric():
    # A positive --seconds makes both loops repeat.
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = _bench("--workload", "smoke", "--seed", "2", "--seconds", "3", "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= (4 if trace == "1" else 2)
        assert set(result["metrics"]) == {m["name"] for m in SPEC[key]}


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", ".out", "__pycache__"))
    done = _bench("--workload", "reference", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
