"""prsafety benchmark: seeded corpora through the real `prsafety run` CLI.

    python3 bench/run.py --workload reference --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the program is imported from ./src.  Each
invocation generates the workload's corpus from the seed (untimed), then:

--trace 0  times fresh `python -m prsafety.cli run` children for --seconds:
           run_s (spawn to exit), prs_per_s, peak_rss_mb (the child's own
           rusage from wait4), and setup_s, the median of several fresh
           children that import prsafety.cli and compile the emoji table.
--trace 1  runs the CLI once, then a child that alternates untraced and
           traced in-process cli.main runs (see tracing.py) for --seconds,
           and reports per-layer self times and counts.

Every run is checked (exit code, manifest row counts, injected ingest
errors, model convergence, model 3 separation) and every run of a workload
must give the same artifact digest.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  failed / attempted
is the failed-run fraction.  `--workload all` runs every workload with
both settings and prints each metric with its unit and sample count.

prsafety.github_fetch is not measured: it needs the network, and its fake
session lives in the test suite.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from checks import artifact_digest, check_outputs
from corpusgen import DATA_END, SHAPES, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"
SPANS = ROOT / "bench" / ".out"

WORKLOADS = ("reference", "long_threads", "many_repos")
SETUP_PER_RUN = 2
# Limit on one child; the traced child gets --seconds on top of it.
CHILD_TIMEOUT_S = 150
# One BLAS thread keeps the fits' timing steady on a shared machine.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_PROBE = "import prsafety.cli, prsafety.cues as c; c.load_emoji_table().pattern"
INFO_PROBE = "import json, numpy, prsafety; print(json.dumps([numpy.__version__, prsafety.__file__]))"

_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"] + _SPEC["per_layer"]}


class BenchError(Exception):
    """The benchmark cannot run here (no program, or it does not import)."""


def child_env() -> dict[str, str]:
    env = {**os.environ, "PYTHONPATH": str(SRC), **BLAS_ENV}
    # Children cache bytecode as an installed package does, so that set-up
    # time is import time, not compile time, whatever the caller's setting.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def timed_child(argv: list[str], cwd: Path) -> tuple[float, int, float, str]:
    """Run one child; return wall seconds, exit code, peak RSS in MB, stderr tail."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        finally:
            timer.cancel()
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    tail = err_path.read_text("utf-8", errors="replace")[-400:].strip()
    return wall, code, usage.ru_maxrss / 1024.0, tail


def environment() -> dict:
    """Interpreter, numpy, CPU and BLAS settings, and the src/ line count."""
    probe = subprocess.run([sys.executable, "-c", INFO_PROBE], env=child_env(),
                           capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if probe.returncode != 0:
        raise BenchError(f"cannot import prsafety from {SRC}: {probe.stderr.strip()[-300:]}")
    numpy_version, module_file = json.loads(probe.stdout)
    if not Path(module_file).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"prsafety imports from {module_file}, not from {SRC}")
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": len(os.sched_getaffinity(0)), "blas": BLAS_ENV, "src_py_lines": src_lines,
            "unmeasured": {"github_fetch": "needs the network; its fake session is in tests/"}}


def cli_args(workload: str) -> list[str]:
    config = ["--config", "config.json"] if SHAPES[workload].config else []
    return ["run", *config, "--corpus", "corpus", "--out", "out", "--data-end", DATA_END]


def run_cli(workload: str, work: Path, expected: dict) -> dict:
    shutil.rmtree(work / "out", ignore_errors=True)
    wall, code, rss, tail = timed_child(
        [sys.executable, "-m", "prsafety.cli", *cli_args(workload)], work)
    problems = check_outputs(code, work / "out", expected)
    if code != 0:
        problems.append(tail)
    digest = artifact_digest(work / "out") if code == 0 else None
    return {"wall": wall, "rss_mb": rss, "problems": problems, "digest": digest}


def measure_setup(work: Path) -> list[float]:
    walls = []
    for _ in range(SETUP_PER_RUN):
        wall, code, _, tail = timed_child([sys.executable, "-c", SETUP_PROBE], work)
        if code != 0:
            raise BenchError(f"set-up probe exited {code}: {tail}")
        walls.append(wall)
    return walls


def end_to_end(workload: str, work: Path, expected: dict, seconds: float) -> tuple[dict, list]:
    # Set-up probes alternate with CLI runs so that both sample the whole
    # window, not one burst of machine noise.
    setup, runs = [], []
    started = perf_counter()
    while not runs or perf_counter() - started < seconds:
        setup += measure_setup(work)
        runs.append(run_cli(workload, work, expected))
    walls = [r["wall"] for r in runs]
    samples = {
        "run_s": walls,
        "prs_per_s": [expected["pulls"] / w for w in walls],
        "peak_rss_mb": [r["rss_mb"] for r in runs],
        "setup_s": setup,
    }
    return samples, runs


def traced(workload: str, work: Path, expected: dict, seconds: float, seed: int) -> tuple[dict, list, list[str]]:
    runs = [run_cli(workload, work, expected)]
    SPANS.mkdir(parents=True, exist_ok=True)
    job = {"argv": cli_args(workload), "out": "out", "expected": expected, "seconds": seconds,
           "spans_path": str(SPANS / f"{workload}-seed{seed}.spans.jsonl")}
    (work / "job.json").write_text(json.dumps(job), "utf-8")
    timeout = seconds + CHILD_TIMEOUT_S
    try:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("tracing.py")), "job.json"],
            cwd=work, env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        runs.append({"problems": [f"traced child ran over {timeout:g} s"], "digest": None})
        return {}, runs, []
    if child.returncode != 0:
        runs.append({"problems": [f"traced child exited {child.returncode}: "
                                  f"{child.stderr.strip()[-400:]}"], "digest": None})
        return {}, runs, []
    summary = json.loads(child.stdout.strip().splitlines()[-1])
    runs += summary["checks"]
    failures = [f"wrapped name no longer exists: {n}" for n in summary["missing"]]
    failures += summary["trace_problems"]
    if failures or not summary["runs"]:
        return {}, runs, failures or ["traced run gave no per-layer numbers"]
    samples = {name: [r[name] for r in summary["runs"]] for name in summary["runs"][0]}
    samples["cues.emoji_scan_s"] = [summary["emoji_scan_s"]]
    samples["cues.emoji_hits"] = [summary["emoji_hits"]]
    untraced = statistics.median(summary["walls"]["untraced"])
    samples["trace.overhead_frac"] = [
        (statistics.median(summary["walls"]["traced"]) - untraced) / untraced
    ]
    return samples, runs, []


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        expected = generate(SHAPES[workload], seed, work / "corpus")
        if SHAPES[workload].config:
            (work / "config.json").write_text(json.dumps(SHAPES[workload].config), "utf-8")
        shares = {k: round(expected[k] / max(expected["comments"], 1), 4)
                  for k in ("non_ascii_comments", "emoji_comments")}
        print(f"workload {workload} seed {seed} trace {int(trace)} corpus {json.dumps(expected)}"
              f" body_share {json.dumps(shares)}")
        if trace:
            samples, runs, failures = traced(workload, work, expected, seconds, seed)
        else:
            samples, runs = end_to_end(workload, work, expected, seconds)
            failures = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = {r["digest"] for r in runs if r["digest"]}
    if len(digests) > 1:
        failures.append(f"runs disagree on the artifact digest: {sorted(digests)}")
    failed = sum(1 for r in runs if r["problems"] or (r["digest"] and len(digests) > 1))
    for r in runs:
        if "wall" in r:
            print(f"run {workload} wall_s {r['wall']:.4f} peak_rss_mb {r['rss_mb']:.1f}")
    metrics = {}
    for name, values in samples.items():
        if UNITS[name] == "count":
            # Counts repeat exactly; a count that varies is a failure, not noise.
            if len(set(values)) > 1:
                failures.append(f"{name} varies between runs: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": UNITS[name]}
        print(f"metric {workload} {name} {value:.6g} {UNITS[name]} samples={len(values)}")
    for problem in sorted({p for r in runs for p in r["problems"]}) + failures:
        print(f"FAIL {workload}: {problem}")
    print(f"artifact_digest {workload} {' '.join(sorted(digests)) or '-'}")
    print(f"failed_run_frac {workload} {failed / len(runs):.4f} ({failed} of {len(runs)} runs)")
    return {"correct": failed == 0 and not failures and bool(samples),
            "attempted": len(runs), "failed": failed + bool(failures), "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*SHAPES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "prsafety" / "cli.py").is_file():
        print(f"no program to measure: {SRC / 'prsafety' / 'cli.py'} is missing", file=sys.stderr)
        return 2
    try:
        print("environment " + json.dumps(environment(), sort_keys=True))
        if args.workload != "all":
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result))
            return 0
        results = {
            f"{w}/trace{t}": run_workload(w, args.seed, args.seconds, bool(t))
            for w in WORKLOADS for t in (0, 1)
        }
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{k}/{name}": m for k, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
