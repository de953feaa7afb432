"""End-to-end pipeline: ingest, cues, screen, label, index, fit, report, run.

The stages form one ordered table, STAGES; each stage names its artifacts and
the summary its command prints.  run_pipeline(config, through) runs the
table's prefix up to the stage `through`, each stage writing its own
artifacts; the last stage, run, writes manifest.json.  If the fit stage ran
and no model fits, run_pipeline then raises StageError naming each failure.
Before any stage it checks the corpus directory's required files and loads
the emoji table into the result; a fault there is a ConfigError, raised
before the output directory is made.

The ingest stage loads the corpus with a fold, cues.Thread over that emoji
table: each comment is checked as every load checks it and folded into its
pull's cue row, so no comment record outlives ingest.  The pulls of
PipelineResult.corpus are therefore a corpus.Pulls: columns, with no object
per pull, of only what the stages read: each pull's repository and author
codes, number, merged flag, reopen count and the index of its cue row.
Their timestamps are checked at ingest and not kept, and they hold no
comments (corpus.load_corpus without a fold gives the records).  The filter
masks those columns, and the cue stage's extract_all turns the rows into the
CueTable, which keeps the Pulls as its row keys.

The fit stage builds its variables once as columns (_model_frame), one row
per contributor of CueTable.contributors (as the labels and the index are)
weighted by its PR count, so n_observations and model_rows_dropped count PRs
(or contributors, each weighing 1); the continuous controls are
log1p-transformed by the cues' skew rule, never excluded.
Each requested model leaves one ModelResult in PipelineResult.models, and
every per-model artifact, report line and manifest entry is read from it.

Every run is deterministic: identical configuration and corpus bytes give
byte-identical artifacts.  Manifests therefore carry no wall-clock fields,
only the configuration hash, the emoji table version, thresholds, screening
decisions and row counts.  The configuration hash is the SHA-256 of the
config's canonical JSON, taken with the interpreter's own SHA-256 module
(_sha2 from Python 3.12, _sha256 before): hashlib would load OpenSSL's
libcrypto, about 3 MB resident, for this one digest, so it is used only on
a build that has neither module.  The manifest's scored_prs and skipped_prs
count the index's per-row score array.

Artifacts written under the output directory:

    ingest_errors.jsonl        per-line validation failures
    cues.csv                   13 cues per pull request
    screening_report.json      one decision per screened variable
    labels.csv                 participation status per (repo, author)
    ps_index_repository.csv    repository index, three decimals, descending
    ps_index_contributor.csv   contributor index
    model_<k>.json             full fit per model
    models_table.csv           side-by-side coefficient table
    report.txt                 human-readable summary
    manifest.json              reproducibility record
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import json
import math
import re
import types
import typing
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from . import corpus as corpus_mod
from . import cues as cues_mod
from . import diagnostics, glm, participation, ps_index, reporting


class ConfigError(ValueError):
    """Invalid pipeline configuration; maps to exit code 2 in the CLI."""


class StageError(RuntimeError):
    """A pipeline stage failed after partial artifacts were written."""


CONTINUOUS_CONTROLS = ("contrib_rate_author", "followers", "num_languages", "social_strength")

# The regression units: each PR counts once, or each contributor once.
UNITS = ("pr", "contributor")

@dataclass
class PipelineConfig:
    """The run's settings, each declared once: config_from_dict reads a JSON
    value of the field's type (an absent key keeps the default),
    corpus.json_form writes the same form, and __post_init__ and the nested
    configs check the ranges."""

    corpus_dir: Path
    out_dir: Path
    labeling: participation.LabelingConfig
    filter: corpus_mod.FilterConfig | None = field(default_factory=corpus_mod.FilterConfig)
    screening: diagnostics.ScreeningConfig = field(default_factory=diagnostics.ScreeningConfig)
    threshold_scope: str = "global"
    merged_only: bool = False
    global_activity: bool = False
    unit: str = "pr"
    models: tuple[int, ...] = (1, 2, 3)
    emoji_table_path: Path | None = None

    def __post_init__(self) -> None:
        if self.unit not in UNITS:
            raise ConfigError(f"unit must be {' or '.join(map(repr, UNITS))}, got {self.unit!r}")
        if self.threshold_scope not in ps_index.THRESHOLD_SCOPES:
            raise ConfigError(f"threshold_scope must be one of {ps_index.THRESHOLD_SCOPES}")
        if not isinstance(self.models, (list, tuple)) or not self.models:
            raise ConfigError(f"models must list at least one model index, got {self.models!r}")
        if not all(type(i) is int and i in (1, 2, 3) for i in self.models):
            raise ConfigError(f"models must be model indices from (1, 2, 3), got {self.models!r}")
        if len(set(self.models)) != len(self.models):
            raise ConfigError(f"models must not repeat a model index, got {self.models!r}")
        # Sorted: the same models give the same config hash and manifest.
        self.models = tuple(sorted(self.models))


def _exact(value, *types):
    """value if its exact type is one of types (so true is no integer), else TypeError."""
    if type(value) not in types:
        raise TypeError(value)
    return value


# Only this grammar goes on to date.fromisoformat, which from Python 3.11 on
# also reads compact, week and date-time forms.
_ISO_DATE = re.compile(r"\d\d\d\d-\d\d-\d\d", re.ASCII)


def _read_date(value) -> date:
    if type(value) is date:
        return value
    if not _ISO_DATE.fullmatch(_exact(value, str)):
        raise ValueError(value)
    return date.fromisoformat(value)


def _read_path(value) -> Path:
    if not _exact(value, str):
        raise ValueError(value)
    return Path(value)


# Each setting type: what its JSON value must be, and how it is read.
_READERS = {
    bool: ("true or false", lambda v: _exact(v, bool)),
    int: ("an integer", lambda v: _exact(v, int)),
    float: ("a number", lambda v: float(_exact(v, int, float))),
    str: ("a string", lambda v: _exact(v, str)),
    Path: ("a non-empty string", _read_path),
    date: ("an ISO date (YYYY-MM-DD)", _read_date),
    frozenset[str]: ("a list of strings", lambda v: frozenset(_exact(s, str) for s in _exact(v, list))),
    tuple[int, ...]: ("a list of integers", lambda v: tuple(_exact(i, int) for i in _exact(v, list))),
}


def _read_value(hint, value, key: str):
    if isinstance(hint, types.UnionType):  # X | None, an optional setting
        if value is None:
            return None
        hint, _ = typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return _read_config(hint, value, key)
    expected, read = _READERS[hint]
    try:
        return read(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{key} must be {expected}, got {value!r}") from None


def _read_config(cls, raw, where: str = ""):
    """An instance of the config dataclass cls from the JSON object raw.

    Each field is read by its type hint; an absent key keeps the field's
    default, and an absent nested config without one reads as {} so that
    the error names its required key.  A key that names no field, and a
    range error of a nested config, is named as section.key.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where} must be a JSON object, got {raw!r}")
    prefix = f"{where}." if where else ""
    names = {f.name for f in dataclasses.fields(cls)}
    for name in raw:
        if name not in names:
            raise ConfigError(f"{prefix}{name} is not a setting")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in dataclasses.fields(cls):
        key = prefix + f.name
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        if f.name in raw:
            values[f.name] = _read_value(hints[f.name], raw[f.name], key)
        elif required and dataclasses.is_dataclass(hints[f.name]):
            values[f.name] = _read_config(hints[f.name], {}, key)
        elif required:
            raise ConfigError(f"{key} is required")
    try:
        return cls(**values)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}.{exc}") from None


def config_from_dict(raw: Mapping, overrides: Mapping | None = None) -> PipelineConfig:
    """Build a PipelineConfig from a JSON-shaped mapping; each override
    replaces the top-level key of its name."""
    return _read_config(PipelineConfig, {**raw, **(overrides or {})})


def read_config_file(path: str | Path) -> dict:
    """Read a config file into a raw mapping, without validating it yet."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text("utf-8")
        # The corpus's fixed limit, so the verdict does not depend on the stack.
        cut = corpus_mod._nesting_cut(text)
        raw = json.loads(text[:cut] if cut else text)
    except json.JSONDecodeError as exc:
        problem = "is nested too deeply" if cut and exc.pos == cut else f"is not valid JSON: {exc.msg}"
        raise ConfigError(f"config file {path} {problem}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 (byte {exc.start})") from None
    except ValueError:  # an integer past the interpreter's digit limit
        raise ConfigError(f"config file {path} holds an integer with too many digits") from None
    except RecursionError:
        raise ConfigError(f"config file {path} is nested too deeply") from None
    if not isinstance(raw, Mapping):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return dict(raw)


def _builtin_sha256():
    for name in ("_sha2", "_sha256"):
        try:
            return importlib.import_module(name).sha256
        except ImportError:
            pass
    from hashlib import sha256

    return sha256


_SHA256 = _builtin_sha256()


def config_hash(config: PipelineConfig) -> str:
    canonical = json.dumps(corpus_mod.json_form(config), sort_keys=True, separators=(",", ":"))
    return _SHA256(canonical.encode("utf-8")).hexdigest()


@dataclass
class ModelResult:
    """One requested model: its spec, and its fit (with VIFs and dropped rows) or why it has none."""

    spec: glm.ModelSpec
    fit: glm.LogisticFit | None = None
    vif: dict[str, float] | None = None
    rows_dropped: int | None = None
    failure: str | None = None


@dataclass
class PipelineResult:
    """What the stages have built so far; fields of stages not yet run stay empty."""

    config: PipelineConfig
    corpus: corpus_mod.Corpus | None = None
    ingest_errors: list = field(default_factory=list)
    emoji_table: cues_mod.EmojiTable | None = None
    cue_table: cues_mod.CueTable | None = None
    screening_report: diagnostics.ScreeningReport | None = None
    labeling: participation.LabelingOutcome | None = None
    thresholds: ps_index.Thresholds | None = None
    summary: ps_index.PsSummary | None = None
    control_transforms: dict[str, str] = field(default_factory=dict)
    models: dict[int, ModelResult] = field(default_factory=dict)
    report_text: str = ""
    manifest: dict | None = None

    @property
    def fits(self) -> dict[int, glm.LogisticFit]:
        """The finite fits by model index, a view of models."""
        return {i: m.fit for i, m in self.models.items() if m.fit is not None}

    @property
    def model_failures(self) -> dict[int, str]:
        """Why each model without a finite fit has none, by model index."""
        return {i: m.failure for i, m in self.models.items() if m.failure is not None}

    @property
    def fit_failed(self) -> bool:
        """True once the fit stage has run and no requested model has a finite fit."""
        return bool(self.models) and not self.fits

    def failure_notes(self) -> list[str]:
        failed = (m for m in self.models.values() if m.failure is not None)
        return [f"{m.spec.name} has no finite fit: {m.failure}" for m in failed]


def load_and_filter(config: PipelineConfig, fold=None) -> corpus_mod.LoadResult:
    try:
        result = corpus_mod.load_corpus(config.corpus_dir, fold)
    except corpus_mod.CorpusError as exc:
        raise ConfigError(str(exc)) from None
    if config.filter is not None:
        result = corpus_mod.LoadResult(
            corpus=corpus_mod.filter_repositories(result.corpus, config.filter),
            errors=result.errors,
        )
    return result


def screen_cues(
    table: cues_mod.CueTable, config: diagnostics.ScreeningConfig
) -> diagnostics.ScreeningReport:
    kinds = {name: "continuous" if name in cues_mod.COUNT_CUES else "binary" for name in table.columns}
    return diagnostics.screen_predictors(table.columns, kinds, config)


def _model_frame(state: PipelineResult) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """The fit stage's variables as columns, one row per distinct (repo, author)
    in first-PR order, and each row's weight: its PR count, or 1 when the unit
    is the contributor.  A missing label, context or index reads NaN, a
    missing repo_size None; the design encoder drops and counts those rows."""
    keys, rows = state.cue_table.contributors
    contexts = {(c.repo_full_name, c.author): c for c in state.corpus.contexts}
    sources = dict.fromkeys(participation.OUTCOMES, state.labeling.labels)
    sources.update((name, contexts) for name in glm.CONTROL_PREDICTORS if name != "repo_size")
    frame = {
        name: np.array([getattr(records.get(key), name, None) for key in keys], dtype=float)
        for name, records in sources.items()
    }
    index = state.summary.repository_index
    frame["PS_index_repository"] = np.array([index.get(repo) for repo, _ in keys], dtype=float)
    sizes = {m.repo_full_name: m.repo_size for m in state.corpus.repos}
    frame["repo_size"] = np.array([sizes.get(repo) for repo, _ in keys], dtype=object)
    weights = np.bincount(rows, minlength=len(keys)).astype(np.int64, copy=False)
    return frame, weights if state.config.unit == "pr" else np.ones_like(weights)


# Stage functions look every module function up at call time, so a caller
# that swaps a module attribute (a tracer, a test double) sees every call.

def _ingest(config: PipelineConfig, state: PipelineResult) -> None:
    load = load_and_filter(config, functools.partial(cues_mod.Thread, state.emoji_table))
    state.corpus, state.ingest_errors = load.corpus, load.errors
    corpus_mod.write_error_report(load.errors, config.out_dir / "ingest_errors.jsonl")


def _cues(config: PipelineConfig, state: PipelineResult) -> None:
    state.cue_table = cues_mod.extract_all(state.corpus.pulls, state.emoji_table)
    cues_mod.write_cues_csv(config.out_dir / "cues.csv", state.cue_table)


def _screen(config: PipelineConfig, state: PipelineResult) -> None:
    state.screening_report = screen_cues(state.cue_table, config.screening)
    diagnostics.write_screening_report(
        state.screening_report, config.out_dir / "screening_report.json"
    )


def _label(config: PipelineConfig, state: PipelineResult) -> None:
    state.labeling = participation.label_contributors(
        state.corpus.commits, state.cue_table.contributors[0], config.labeling,
        global_activity=config.global_activity,
    )
    participation.write_labels_csv(config.out_dir / "labels.csv", state.labeling.labels)


def _index(config: PipelineConfig, state: PipelineResult) -> None:
    state.thresholds = ps_index.compute_thresholds(state.cue_table, scope=config.threshold_scope)
    state.summary = ps_index.summarize(
        state.cue_table, state.labeling.labels, state.thresholds, merged_only=config.merged_only
    )
    ps_index.write_repository_csv(config.out_dir / "ps_index_repository.csv", state.summary)
    ps_index.write_contributor_csv(config.out_dir / "ps_index_contributor.csv", state.summary)


def _fit(config: PipelineConfig, state: PipelineResult) -> None:
    out = config.out_dir
    frame, weights = _model_frame(state)
    for name in CONTINUOUS_CONTROLS:
        # The cues' skew rule over the unit's rows, never exclusion: too few values
        # for the skewness type, zero variance or negative values leave a control as is.
        present = ~np.isnan(frame[name])
        values = np.repeat(frame[name][present], weights[present])
        with contextlib.suppress(ValueError):
            if diagnostics.log1p_if_skewed(values, config.screening)[1] is not None:
                state.control_transforms[name] = "log1p"
    all_specs = glm.canned_model_specs(state.control_transforms)
    for index in config.models:
        model = state.models[index] = ModelResult(all_specs[index - 1])
        path = out / f"model_{index}.json"
        try:
            design = glm.encode_design(frame, model.spec, weights)
            model.fit = glm.fit_logistic(design.X, design.y, design.columns, design.weights)
        except (glm.DesignError, glm.SeparationError) as exc:
            # A model without a finite fit is a reported outcome, not a crash;
            # the other models still run and the record stays deterministic.
            model.failure = str(exc)
            reporting.write_model_failure_json(path, model.spec, model.failure)
            continue
        model.vif = glm.vif(design.X, design.columns, design.weights)
        model.rows_dropped = design.n_dropped
        reporting.write_model_json(path, model.fit, model.spec)
    reporting.write_models_csv(out / "models_table.csv", state.fits)


def _report(config: PipelineConfig, state: PipelineResult) -> None:
    state.report_text = reporting.render_report(
        state.summary,
        state.fits,
        screening_table=state.screening_report.format_table(),
        model_notes=state.failure_notes(),
    )
    (config.out_dir / "report.txt").write_text(state.report_text, encoding="utf-8")


def _fit_summary(result: PipelineResult) -> str:
    return "\n".join(
        f"model_{i}: no finite fit ({m.failure})" if m.fit is None
        else f"model_{i}: n={m.fit.n_observations} ll={m.fit.log_likelihood:.2f} aic={m.fit.aic:.2f}"
        for i, m in result.models.items()
    )


def _write_manifest(config: PipelineConfig, state: PipelineResult) -> None:
    state.manifest = _manifest(state)
    corpus_mod.write_json(config.out_dir / "manifest.json", state.manifest)


@dataclass(frozen=True)
class Stage:
    name: str
    artifacts: tuple[str, ...]
    run: Callable[[PipelineConfig, PipelineResult], None]
    summary: Callable[[PipelineResult], str]  # what the stage's command prints


# The method's one fixed order.  Each stage reads what earlier stages left in
# the PipelineResult and writes its own artifacts; fit also writes one
# model_<k>.json per requested model, and run records the whole run.
STAGES = (
    Stage("ingest", ("ingest_errors.jsonl",), _ingest,
          lambda r: json.dumps({**r.corpus.counts(), "ingest_errors": len(r.ingest_errors)}, sort_keys=True)),
    Stage("cues", ("cues.csv",), _cues, lambda r: f"wrote cues for {len(r.cue_table)} pull requests"),
    Stage("screen", ("screening_report.json",), _screen, lambda r: r.screening_report.format_table()),
    Stage("label", ("labels.csv",), _label,
          lambda r: f"labeled {len(r.labeling.labels)} contributors, {len(r.labeling.unlabeled)} unlabeled"),
    Stage("index", ("ps_index_repository.csv", "ps_index_contributor.csv"), _index,
          lambda r: reporting.format_index_table(r.summary.repository_index)),
    Stage("fit", ("models_table.csv",), _fit, _fit_summary),
    Stage("report", ("report.txt",), _report, lambda r: r.report_text),
    Stage("run", ("manifest.json",), _write_manifest,
          lambda r: f"wrote {len(r.manifest['artifacts']) + 1} artifacts to {r.config.out_dir}"),
)

# The fixed-name artifacts of every stage before run: the manifest lists these, not itself.
ARTIFACT_FILES = tuple(name for stage in STAGES[:-1] for name in stage.artifacts)

NO_FIT = "no requested model has a finite fit"


def _manifest(result: PipelineResult) -> dict:
    config, thresholds = result.config, result.thresholds
    fitted = {i: m for i, m in result.models.items() if m.fit is not None}
    return {
        "tool": "prsafety",
        "config": corpus_mod.json_form(config),
        "config_hash": config_hash(config),
        "emoji_table_version": result.emoji_table.version,
        "thresholds": {
            "scope": thresholds.scope,
            "global": thresholds.global_medians,
            "per_repository": thresholds.per_repository,
        },
        "screening": corpus_mod.json_form(result.screening_report),
        "control_transforms": result.control_transforms,
        "role_provenance": "stored",
        "row_counts": {
            **result.corpus.counts(),
            "ingest_errors": len(result.ingest_errors),
            "labeled_contributors": len(result.labeling.labels),
            "unlabeled_contributors": len(result.labeling.unlabeled),
            "scored_prs": int(np.count_nonzero(result.summary.scores >= 0)),
            "skipped_prs": int(np.count_nonzero(result.summary.scores < 0)),
            "model_rows_dropped": {i: m.rows_dropped for i, m in fitted.items()},
        },
        "vif": {
            "threshold": glm.VIF_THRESHOLD,
            # An infinite factor (a collinear column) is written as null.
            "per_model": {
                str(i): {name: v if math.isfinite(v) else None for name, v in m.vif.items()}
                for i, m in fitted.items()
            },
            "all_below_threshold": all(glm.vif_gate(m.vif) for m in fitted.values()),
        },
        "notes": [ps_index.OUTCOME_COUPLING_NOTE] + result.failure_notes(),
        "model_failures": {str(i): why for i, why in result.model_failures.items()},
        "artifacts": sorted([*ARTIFACT_FILES, *(f"model_{i}.json" for i in result.models)]),
        "failure": {"stage": "fit", "detail": NO_FIT} if result.fit_failed else None,
    }


def run_pipeline(config: PipelineConfig, through: str = STAGES[-1].name) -> PipelineResult:
    """Run the stage table in order, up to and including the stage `through`,
    then raise StageError if the fit stage ran and no model fits.

    Every stage that runs writes its artifacts, so a failed fit leaves them
    all for inspection.
    """
    stop = [stage.name for stage in STAGES].index(through)
    try:
        corpus_mod.check_corpus_dir(config.corpus_dir)
        emoji_table = cues_mod.load_emoji_table(config.emoji_table_path)
    except (corpus_mod.CorpusError, cues_mod.EmojiTableError) as exc:
        raise ConfigError(str(exc)) from None
    config.out_dir.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(config, emoji_table=emoji_table)
    for stage in STAGES[: stop + 1]:
        stage.run(config, result)
    if result.fit_failed:
        # One line per model: a failure's own text may hold "; ".
        lines = [f"fit stage failed: {NO_FIT}; see {config.out_dir}", *result.failure_notes()]
        raise StageError("\n  ".join(lines))
    return result
