"""Command line interface.

Subcommands mirror the pipeline stages.  Stage command X runs the stage
table through X and writes the artifacts of every stage it ran; only ``run``
executes the whole table and writes manifest.json.  All options can come
from a JSON config file (--config); explicit flags override file values.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.

A stage command runs with the cyclic garbage collector paused.  A run's
records and tables form no reference cycles and live until the command
returns, so the collector's passes over them during the run find nothing;
they are freed by reference counting when the command returns, before the
caller's collector state is restored.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from pathlib import Path

from . import corpus as corpus_mod
from . import cues as cues_mod
from . import diagnostics, github_fetch, participation, pipeline, ps_index, reporting

STAGE_COMMANDS = tuple(stage.name for stage in pipeline.STAGES) + ("run",)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--corpus", dest="corpus_dir", help="corpus directory")
    parser.add_argument("--out", dest="out_dir", help="output directory for artifacts")
    parser.add_argument("--data-end", help="last observed date, YYYY-MM-DD")
    parser.add_argument("--snapshot-date", help="snapshot date, YYYY-MM-DD")
    parser.add_argument("--window-months", type=int, help="sustain window length")
    parser.add_argument("--recent-horizon-end", help="recent-outcome horizon, YYYY-MM-DD")
    parser.add_argument("--censor-margin-months", type=int, help="censoring margin")
    parser.add_argument("--gap-months", type=int, help="gap-return threshold")
    parser.add_argument("--threshold-scope", choices=ps_index.THRESHOLD_SCOPES)
    parser.add_argument("--merged-only", action="store_true", default=None,
                        help="credit the merge condition only for merged PRs")
    parser.add_argument("--global-activity", action="store_true", default=None,
                        help="build timelines across all repositories")
    parser.add_argument("--unit", choices=("pr", "contributor"), help="regression unit")
    parser.add_argument("--models", help="comma-separated model indices, e.g. 1,2,3")
    parser.add_argument("--emoji-table", dest="emoji_table_path", help="alternate emoji table")
    parser.add_argument("--no-filter", action="store_true", default=None,
                        help="skip star-rank and category filtering")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prsafety",
        description="Psychological-safety analytics over pull request corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fetch = sub.add_parser("fetch", help="export one repository via the GitHub REST API")
    fetch.add_argument("--repo", required=True, help="owner/name")
    fetch.add_argument("--out", required=True, help="output corpus directory")
    fetch.add_argument("--since", help="RFC 3339 lower bound for comments and commits")
    fetch.add_argument(
        "--token-env",
        default="GITHUB_TOKEN",
        help="name of the environment variable holding the API token",
    )
    fetch.add_argument("--page-size", type=int, default=100)
    fetch.add_argument("--max-retries", type=int, default=3)

    for name in STAGE_COMMANDS:
        stage = sub.add_parser(name, help=f"run the {name} stage")
        _add_common(stage)

    return parser


def _pipeline_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    overrides: dict = {}
    for key in ("corpus_dir", "out_dir", "threshold_scope", "unit", "emoji_table_path",
                "merged_only", "global_activity"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "models", None):
        try:
            overrides["models"] = tuple(int(v) for v in str(args.models).split(",") if v)
        except ValueError:
            raise pipeline.ConfigError(f"bad --models value: {args.models!r}") from None

    labeling_overrides = {}
    for key in ("data_end", "snapshot_date", "window_months", "recent_horizon_end",
                "censor_margin_months", "gap_months"):
        value = getattr(args, key, None)
        if value is not None:
            labeling_overrides[key] = value

    if args.config:
        raw = pipeline.read_config_file(args.config)
    else:
        raw = {}
    labeling = raw.get("labeling") or {}
    # A malformed section is left in place for config_from_dict to reject.
    if labeling_overrides and isinstance(labeling, dict):
        raw["labeling"] = {**labeling, **labeling_overrides}
    if getattr(args, "no_filter", None):
        raw["filter"] = None
    elif not args.config and "filter" not in raw:
        raw["filter"] = {}
    return pipeline.config_from_dict(raw, overrides)


def _cmd_fetch(args: argparse.Namespace) -> int:
    job = github_fetch.FetchJob(
        repo_full_name=args.repo,
        output_dir=args.out,
        since=args.since,
        auth_token_source=args.token_env,
        page_size=args.page_size,
        max_retries=args.max_retries,
    )
    report = github_fetch.fetch_repository(job)
    print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    return 0


def _fit_summary(result: pipeline.PipelineResult) -> str:
    lines = [
        f"model_{i}: n={fit.n_observations} ll={fit.log_likelihood:.2f} aic={fit.aic:.2f}"
        for i, fit in sorted(result.fits.items())
    ]
    lines += [f"model_{i}: no finite fit ({why})" for i, why in sorted(result.model_failures.items())]
    return "\n".join(lines)


# What each stage command prints once the table has run through that stage.
STAGE_SUMMARIES = {
    "ingest": lambda r: json.dumps(
        {**r.corpus.counts(), "ingest_errors": len(r.ingest_errors)}, sort_keys=True
    ),
    "cues": lambda r: f"wrote cues for {len(r.cue_table)} pull requests",
    "screen": lambda r: r.screening_report.format_table(),
    "label": lambda r: (
        f"labeled {len(r.labeling.labels)} contributors, {len(r.labeling.unlabeled)} unlabeled"
    ),
    "index": lambda r: reporting.format_index_table(r.summary.repository_index),
    "fit": _fit_summary,
    "report": lambda r: r.report_text,
}


def _cmd_stage(command: str, args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    if command == "run":
        result = pipeline.run_pipeline(config)
        print(f"wrote {len(result.manifest['artifacts']) + 1} artifacts to {config.out_dir}")
        return 0
    result = pipeline.run_stages(config, through=command)
    print(STAGE_SUMMARIES[command](result))
    if result.fit_failed:
        raise pipeline.StageError(
            f"fit stage failed: {pipeline.NO_FIT}; see the model_<k>.json files in {config.out_dir}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fetch":
            return _cmd_fetch(args)
        enabled = gc.isenabled()
        gc.disable()
        try:
            return _cmd_stage(args.command, args)
        finally:
            if enabled:
                gc.enable()
    except (pipeline.ConfigError, participation.LabelingConfigError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (
        corpus_mod.CorpusError,
        github_fetch.FetchError,
        cues_mod.EmojiTableError,
        diagnostics.UndefinedSkewnessError,
        OSError,
        ValueError,
        RuntimeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
