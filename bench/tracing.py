"""Traced in-process runs: spans around every call into prsafety's modules.

The tracer replaces module attributes (for example prsafety.corpus.load_corpus)
with wrappers that record a span per call: name, start, end, parent span and
run id.  The pipeline looks these names up at call time, so the trace follows
the program's own orchestration without any change to the program.  Spans
stay in memory and are written out when the job ends.

Run as a script with a job file, this module makes one untimed warm-up call
of cli.main(["run", ...]) in the current directory, then alternates untraced
and traced calls, checks every run's outputs, times the emoji kernel, and
prints one JSON summary line.  All timed runs are warm: once-per-process
costs, such as the emoji pattern compile, fall in the warm-up.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import artifact_digest, check_outputs

# Per-layer time metric -> the module functions whose spans' self time it sums.
LAYER_TIMES: dict[str, tuple[str, ...]] = {
    "corpus.load_s": ("corpus.load_corpus",),
    "corpus.filter_s": ("corpus.filter_repositories",),
    "cues.table_load_s": ("cues.load_emoji_table",),
    "cues.extract_s": ("cues.extract_all",),
    "cues.write_s": ("cues.write_cues_csv",),
    "diagnostics.screen_s": (
        "diagnostics.screen_predictors",
        "diagnostics.skewness",
        "diagnostics.write_screening_report",
    ),
    "participation.label_s": ("participation.label_contributors", "participation.write_labels_csv"),
    "ps_index.thresholds_s": ("ps_index.compute_thresholds",),
    "ps_index.summarize_s": (
        "ps_index.summarize",
        "ps_index.write_repository_csv",
        "ps_index.write_contributor_csv",
    ),
    "glm.encode_s": ("glm.canned_model_specs", "glm.encode_design"),
    "glm.irls_s": ("glm.fit_logistic",),
    "glm.vif_s": ("glm.vif", "glm.vif_gate"),
    "reporting.write_s": (
        "reporting.write_model_json",
        "reporting.write_model_failure_json",
        "reporting.write_models_csv",
        "reporting.render_report",
    ),
    "pipeline.self_s": ("pipeline.run_pipeline", "pipeline.load_and_filter", "pipeline.screen_cues"),
}

# The root span: every other span of a run nests under it.
ROOT = "cli.main"
WRAPPED = (ROOT,) + tuple(name for names in LAYER_TIMES.values() for name in names)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int
    error: str | None = None
    result: object = None  # dropped once the run's counts are taken


class Tracer:
    """Records spans for calls through wrapped prsafety module attributes."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._originals: dict[str, object] = {}

    def install(self, names=WRAPPED) -> list[str]:
        """Wrap each 'module.function'; return the names that do not exist."""
        missing = []
        for name in names:
            module_name, attr = name.split(".")
            module = importlib.import_module(f"prsafety.{module_name}")
            original = getattr(module, attr, None)
            if not callable(original):
                missing.append(name)
                continue
            self._originals[name] = original
            setattr(module, attr, self._wrap(name, original))
        return missing

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            module_name, attr = name.split(".")
            setattr(importlib.import_module(f"prsafety.{module_name}"), attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else None, self.run)
            stack.append(len(spans))
            spans.append(span)
            span.start = perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def run_metrics(spans: list[Span], run: int) -> dict[str, float]:
    """Self times per layer and boundary counts of one traced run."""
    own = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s.run == run:
            by_name.setdefault(s.name, []).append(i)

    def results(name: str) -> list:
        return [spans[i].result for i in by_name.get(name, []) if spans[i].error is None]

    metrics = {
        metric: sum(own[i] for name in names for i in by_name.get(name, []))
        for metric, names in LAYER_TIMES.items()
    }
    (load,) = results("corpus.load_corpus")
    records = sum(load.corpus.counts().values())
    comments = sum(len(pull.comments) for pull, _ in results("cues.extract_all")[0])
    (labeling,) = results("participation.label_contributors")
    (summary,) = results("ps_index.summarize")
    metrics.update({
        "corpus.records": records,
        "corpus.errors": len(load.errors),
        "corpus.records_per_s": records / metrics["corpus.load_s"],
        "cues.comments_per_s": comments / metrics["cues.extract_s"],
        "diagnostics.skewness_calls": len(by_name.get("diagnostics.skewness", [])),
        "participation.contributors": len(labeling.labels) + len(labeling.unlabeled),
        "ps_index.repos": len(summary.repository_index),
        "glm.irls_iterations": sum(fit.iterations for fit in results("glm.fit_logistic")),
        "glm.rows": sum(design.X.shape[0] for design in results("glm.encode_design")),
        "glm.separations": sum(
            1 for i in by_name.get("glm.fit_logistic", []) if spans[i].error == "SeparationError"
        ),
    })
    return metrics


def empty_layers(spans: list[Span], run: int) -> list[str]:
    """Modules with no span in the run.  A single function may go unused
    (with filtering off, corpus.filter_s reads 0), a whole layer may not."""
    seen = {s.name.split(".")[0] for s in spans if s.run == run}
    return sorted({metric.split(".")[0] for metric in LAYER_TIMES} - seen)


def nesting_problems(spans: list[Span], run: int) -> list[str]:
    """Spans of one run that do not nest inside their parent, or extra roots."""
    problems = []
    for i, s in enumerate(spans):
        if s.run != run:
            continue
        if s.parent is None:
            if s.name != ROOT:
                problems.append(f"span {i} ({s.name}) has no parent")
            continue
        parent = spans[s.parent]
        if not (parent.start <= s.start <= s.end <= parent.end) or parent.run != s.run:
            problems.append(f"span {i} ({s.name}) escapes its parent {parent.name}")
    return problems


def _emoji_kernel(bodies: list[str], repeats: int = 3) -> tuple[float, int]:
    from prsafety import cues

    table = cues.load_emoji_table()
    table.pattern  # compile outside the timed loop
    times, hits = [], 0
    for _ in range(repeats):
        start = perf_counter()
        hits = sum(cues.count_emojis(body, table) for body in bodies)
        times.append(perf_counter() - start)
    return statistics.median(times), hits


def run_job(job: dict) -> dict:
    """Warm up, then alternate untraced and traced in-process runs for job['seconds']."""
    from prsafety import cli

    argv, out, expected = job["argv"], Path(job["out"]), job["expected"]
    tracer = Tracer()
    missing = tracer.install()
    tracer.uninstall()
    summary = {"missing": missing, "checks": [], "trace_problems": [], "runs": [],
               "walls": {"untraced": [], "traced": []}}
    if missing:
        return summary

    def one_run(traced: bool) -> float:
        shutil.rmtree(out, ignore_errors=True)
        if traced:
            tracer.run += 1
            tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = cli.main(argv)
                wall = perf_counter() - start
        finally:
            tracer.uninstall()
        summary["checks"].append({
            "problems": check_outputs(code, out, expected),
            "digest": artifact_digest(out) if code == 0 else None,
        })
        return wall

    one_run(traced=False)  # warm-up, checked but not timed
    bodies: list[str] = []
    started = perf_counter()
    while not summary["runs"] or perf_counter() - started < job["seconds"]:
        summary["walls"]["untraced"].append(one_run(traced=False))
        summary["walls"]["traced"].append(one_run(traced=True))
        spans, run = tracer.spans, tracer.run
        summary["trace_problems"] = nesting_problems(spans, run) + [
            f"no span recorded in layer {m}" for m in empty_layers(spans, run)
        ]
        if summary["trace_problems"] or any(c["problems"] for c in summary["checks"]):
            break
        if not bodies:
            (load,) = [s.result for s in spans if s.run == run and s.name == "corpus.load_corpus"]
            bodies = [c.body for pull in load.corpus.pulls for c in pull.comments]
        summary["runs"].append(run_metrics(spans, run))
        for span in spans:
            span.result = None

    if summary["runs"]:
        summary["emoji_scan_s"], summary["emoji_hits"] = _emoji_kernel(bodies)
    with open(job["spans_path"], "w", encoding="utf-8") as handle:
        for s in tracer.spans:
            handle.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run, "error": s.error}) + "\n")
    return summary


if __name__ == "__main__":
    job = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    print(json.dumps(run_job(job)))
