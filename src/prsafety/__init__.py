"""Psychological-safety analytics for pull request corpora."""

from .corpus import (
    CommentRecord,
    CommitEvent,
    ContributorContext,
    Corpus,
    FilterConfig,
    PullRequestRecord,
    RepoMeta,
    filter_repositories,
    load_corpus,
    save_corpus,
)
from .cues import (
    CUE_NAMES,
    CueTable,
    CueVector,
    count_emojis,
    extract_all,
    load_emoji_table,
)
from .diagnostics import ScreeningConfig, log1p_transform, screen_predictors, skewness
from .github_fetch import FetchJob, FetchReport, GitHubFetcher, fetch_repository
from .glm import (
    LogisticFit,
    ModelSpec,
    SeparationError,
    canned_model_specs,
    encode_design,
    fit_logistic,
    vif,
)
from .participation import (
    LabelingConfig,
    ParticipationLabel,
    detect_gap_return,
    label_participation,
)
from .pipeline import PipelineConfig, StageError, run_pipeline
from .ps_index import Thresholds, compute_thresholds, score_prs, summarize

__version__ = "0.1.0"

__all__ = [
    "CUE_NAMES",
    "CommentRecord",
    "CommitEvent",
    "ContributorContext",
    "Corpus",
    "CueTable",
    "CueVector",
    "FetchJob",
    "FetchReport",
    "FilterConfig",
    "GitHubFetcher",
    "LabelingConfig",
    "LogisticFit",
    "ModelSpec",
    "ParticipationLabel",
    "PipelineConfig",
    "PullRequestRecord",
    "RepoMeta",
    "ScreeningConfig",
    "SeparationError",
    "StageError",
    "Thresholds",
    "canned_model_specs",
    "compute_thresholds",
    "count_emojis",
    "detect_gap_return",
    "encode_design",
    "extract_all",
    "fetch_repository",
    "filter_repositories",
    "fit_logistic",
    "label_participation",
    "load_corpus",
    "load_emoji_table",
    "log1p_transform",
    "run_pipeline",
    "save_corpus",
    "score_prs",
    "screen_predictors",
    "skewness",
    "summarize",
    "vif",
]
