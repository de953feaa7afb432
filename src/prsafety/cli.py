"""Command line interface.

Subcommands besides ``fetch`` are the pipeline's stage names.  Command X runs
the stage table through X, writing every artifact of the stages it ran, and
prints X's summary; ``run``, the last stage, writes manifest.json.  When the
fit stage ran and no model fits, the command prints no summary and exits 1
with each model's reason.  All options can come from a JSON config file
(--config); explicit flags override file values.

Exit codes: 0 success, 1 runtime failure, 2 configuration error.

A stage command runs with the cyclic garbage collector paused.  A run's
records and tables form no reference cycles and live until the command
returns, so the collector's passes over them during the run find nothing;
they are freed by reference counting when the command returns, before the
caller's collector state is restored.  Since a run holds its pulls as
columns, the pause saves no time that paired runs resolve on the benchmark's
corpora, and on some of them it raises the run's peak by about 0.6 MB
(README gives the measurement).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import re
import sys

# Before numpy's first import, below: BLAS pools of one thread per core can
# stall the small fits on a busy host, so one thread unless the caller set one.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

from . import corpus as corpus_mod
from . import github_fetch, participation, pipeline, ps_index

STAGE_COMMANDS = tuple(stage.name for stage in pipeline.STAGES)


_DIGITS = re.compile(r"\d+", re.ASCII)


def _count(text: str) -> int:
    """An integer flag value: ASCII digits only, so no sign, space, "_" or other script's digits."""
    if not _DIGITS.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The stage commands' flags; each dest is the name of the setting it overrides."""
    parser.add_argument("--config", help="JSON config file; flags override its values")
    parser.add_argument("--corpus", dest="corpus_dir", help="corpus directory")
    parser.add_argument("--out", dest="out_dir", help="output directory for artifacts")
    parser.add_argument("--data-end", help="last observed date, YYYY-MM-DD")
    parser.add_argument("--snapshot-date", help="snapshot date, YYYY-MM-DD")
    parser.add_argument("--window-months", type=_count, help="sustain window length")
    parser.add_argument("--recent-horizon-end", help="recent-outcome horizon, YYYY-MM-DD")
    parser.add_argument("--censor-margin-months", type=_count, help="censoring margin")
    parser.add_argument("--gap-months", type=_count, help="gap-return threshold")
    parser.add_argument("--threshold-scope", choices=ps_index.THRESHOLD_SCOPES)
    parser.add_argument("--merged-only", action="store_true", default=None,
                        help="credit the merge condition only for merged PRs")
    parser.add_argument("--global-activity", action="store_true", default=None,
                        help="build timelines across all repositories")
    parser.add_argument("--unit", choices=pipeline.UNITS, help="regression unit")
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

    # Each dest is a FetchJob field; a flag not given keeps the field's default.
    fetch = sub.add_parser("fetch", help="export one repository via the GitHub REST API")
    fetch.add_argument("--repo", dest="repo_full_name", required=True, help="owner/name")
    fetch.add_argument("--out", dest="output_dir", required=True, help="output corpus directory")
    fetch.add_argument("--since", help="RFC 3339 lower bound for comments and commits")
    fetch.add_argument("--token-env", dest="auth_token_source",
                       help="name of the environment variable holding the API token")
    fetch.add_argument("--page-size", type=_count)
    fetch.add_argument("--max-retries", type=_count)

    for name in STAGE_COMMANDS:
        stage = sub.add_parser(name, help=f"run the stages through {name}")
        _add_common(stage)

    return parser


def _given(args: argparse.Namespace, *skip: str) -> dict:
    """The flags given on the command line, by dest."""
    return {k: v for k, v in vars(args).items() if v is not None and k not in ("command", *skip)}


def _pipeline_config(args: argparse.Namespace) -> pipeline.PipelineConfig:
    overrides = _given(args, "config", "no_filter")
    if "models" in overrides:
        try:
            overrides["models"] = [_count(v) for v in overrides["models"].split(",")]
        except argparse.ArgumentTypeError:
            raise pipeline.ConfigError(f"bad --models value: {args.models!r}") from None
    labeling = {
        f.name: overrides.pop(f.name)
        for f in dataclasses.fields(participation.LabelingConfig)
        if f.name in overrides
    }
    raw = pipeline.read_config_file(args.config) if args.config else {}
    # A malformed section is left in place for config_from_dict to reject.
    if labeling and isinstance(raw.get("labeling", {}), dict):
        raw["labeling"] = {**raw.get("labeling", {}), **labeling}
    if args.no_filter:
        raw["filter"] = None
    return pipeline.config_from_dict(raw, overrides)


def _cmd_fetch(args: argparse.Namespace) -> int:
    try:
        job = github_fetch.FetchJob(**_given(args))
    except ValueError as exc:
        raise pipeline.ConfigError(str(exc)) from None
    report = github_fetch.GitHubFetcher().fetch_repository(job)
    print(json.dumps(corpus_mod.json_form(report), indent=2, sort_keys=True))
    return 0


def _cmd_stage(command: str, args: argparse.Namespace) -> int:
    result = pipeline.run_pipeline(_pipeline_config(args), through=command)
    print(pipeline.STAGES[STAGE_COMMANDS.index(command)].summary(result))
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
    except pipeline.ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (
        corpus_mod.CorpusError,
        github_fetch.FetchError,
        OSError,
        ValueError,
        RuntimeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
