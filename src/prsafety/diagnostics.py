"""Distribution diagnostics and predictor screening.

Sample skewness follows the three-type convention of the classic statistics
packages.  With central moments m_k = sum((x - mean)^k) / n:

    type 1:  g1 = m3 / m2^(3/2)
    type 2:  G1 = g1 * sqrt(n (n - 1)) / (n - 2)
    type 3:  b1 = g1 * ((n - 1) / n)^(3/2)        (default)

Screening applies a fixed policy per variable: continuous variables whose
absolute skewness exceeds the threshold are log1p-transformed, and excluded
when the transformed skewness still exceeds it; binary variables are
excluded when their minority class falls below the imbalance threshold.
Every variable appears in the report exactly once with the reason for its
decision, and decisions depend only on the variable's own values, never on
the order variables are supplied in.  The model controls go through the
same skew rule, log1p_if_skewed, but are never excluded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .corpus import write_json

VariableKind = str  # "continuous" | "binary"

KINDS = ("continuous", "binary")


class UndefinedSkewnessError(ValueError):
    """Skewness is undefined: zero variance, or too few observations for the type."""


# The fewest observations each skewness type is defined for.
_MIN_OBSERVATIONS = {1: 2, 2: 3, 3: 3}


def skewness(values: Sequence[float], type: int = 3) -> float:
    """Sample skewness of a 1-d sample.

    Types 2 and 3 rescale the moment coefficient g1 and need at least three
    observations; type 1 needs two.  Fewer observations, or zero variance
    (the coefficient divides by m2^(3/2)), raise UndefinedSkewnessError.
    Zero variance is a constant sample, decided on the values themselves,
    so a mean that rounds gives a constant sample no skewness.
    """
    if type not in _MIN_OBSERVATIONS:
        raise ValueError(f"skewness type must be 1, 2 or 3, got {type}")
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ValueError("skewness expects a 1-d sample")
    n = x.size
    min_n = _MIN_OBSERVATIONS[type]
    if n < min_n:
        raise UndefinedSkewnessError(f"skewness type {type} needs at least {min_n} observations, got {n}")
    if x.min() == x.max():
        raise UndefinedSkewnessError("skewness undefined: sample variance is zero")
    # g1 does not change with scale, and scaling by a power of two is exact:
    # centred values near 1 keep m2^(3/2) from underflowing to 0 and m3 from
    # overflowing.
    centered = x - x.mean()
    centered = np.ldexp(centered, -np.frexp(np.max(np.abs(centered)))[1])
    m2 = float(np.mean(centered**2))
    m3 = float(np.mean(centered**3))
    g1 = m3 / m2**1.5
    if type == 1:
        return g1
    if type == 2:
        return g1 * math.sqrt(n * (n - 1)) / (n - 2)
    return g1 * ((n - 1) / n) ** 1.5


def log1p_transform(values: Sequence[float]) -> np.ndarray:
    """Elementwise log(1 + x); negative inputs are a domain error."""
    x = np.asarray(values, dtype=float)
    if x.size and float(x.min()) < 0.0:
        raise ValueError(f"log1p transform needs non-negative values, got min {float(x.min())}")
    return np.log1p(x)


@dataclass(frozen=True)
class ScreeningConfig:
    skew_threshold: float = 3.0
    minority_threshold: float = 0.05
    skew_type: int = 3

    def __post_init__(self) -> None:
        # The negated comparisons also reject NaN.
        if not 0.0 <= self.skew_threshold < math.inf:
            raise ValueError(
                f"skew_threshold must be a finite number >= 0, got {self.skew_threshold}"
            )
        if not 0.0 <= self.minority_threshold <= 0.5:
            raise ValueError(
                f"minority_threshold must lie in [0, 0.5], got {self.minority_threshold}"
            )
        if self.skew_type not in (1, 2, 3):
            raise ValueError(f"skew_type must be 1, 2 or 3, got {self.skew_type}")


def log1p_if_skewed(values: Sequence[float], config: ScreeningConfig) -> tuple[float, np.ndarray | None]:
    """The one skew rule: the sample skewness, and the log1p-transformed
    sample when |skewness| exceeds the threshold (else None).  Raises
    ValueError on zero variance or too few values (UndefinedSkewnessError),
    or on a skewed sample with negative values, which log1p cannot take."""
    raw = skewness(values, type=config.skew_type)
    return raw, log1p_transform(values) if abs(raw) > config.skew_threshold else None


@dataclass(frozen=True)
class ScreeningDecision:
    name: str
    kind: VariableKind
    action: str
    reason: str
    raw_skewness: float | None = None
    transformed_skewness: float | None = None
    minority_fraction: float | None = None


@dataclass
class ScreeningReport:
    config: ScreeningConfig
    variables: list[ScreeningDecision]

    def format_table(self) -> str:
        header = f"{'variable':<26} {'kind':<11} {'decision':<12} reason"
        rows = [header, "-" * len(header)]
        for d in self.variables:
            rows.append(f"{d.name:<26} {d.kind:<11} {d.action:<12} {d.reason}")
        return "\n".join(rows)


def _screen_binary(name: str, values: np.ndarray, config: ScreeningConfig) -> ScreeningDecision:
    # Tested elementwise: np.unique, on numpy 2, imports numpy.ma, so it
    # runs only to word the error.
    if ((values != 0) & (values != 1)).any():
        bad = set(np.unique(values)) - {0.0, 1.0}
        raise ValueError(f"binary variable {name!r} takes values outside {{0, 1}}: {sorted(bad)}")
    if not values.size:
        return ScreeningDecision(name, "binary", "excluded", "no observations, minority class undefined")
    minority = float(min(values.mean(), 1.0 - values.mean()))
    if minority < config.minority_threshold:
        return ScreeningDecision(
            name,
            "binary",
            "excluded",
            f"minority class {minority:.4f} below {config.minority_threshold}",
            minority_fraction=minority,
        )
    return ScreeningDecision(
        name,
        "binary",
        "retained",
        f"minority class {minority:.4f} at or above {config.minority_threshold}",
        minority_fraction=minority,
    )


def _screen_continuous(name: str, values: np.ndarray, config: ScreeningConfig) -> ScreeningDecision:
    try:
        raw, logged = log1p_if_skewed(values, config)
    except UndefinedSkewnessError as exc:
        # Too few values: the error names the count.  Zero variance: a fixed reason.
        too_few = values.size < _MIN_OBSERVATIONS[config.skew_type]
        reason = str(exc) if too_few else "zero variance, skewness undefined"
        return ScreeningDecision(name, "continuous", "excluded", reason)
    if logged is None:
        return ScreeningDecision(
            name,
            "continuous",
            "retained",
            f"|skewness| {abs(raw):.2f} within {config.skew_threshold}",
            raw_skewness=raw,
        )
    transformed = skewness(logged, type=config.skew_type)
    if abs(transformed) > config.skew_threshold:
        return ScreeningDecision(
            name,
            "continuous",
            "excluded",
            f"|skewness| {abs(transformed):.2f} after log1p still above {config.skew_threshold}",
            raw_skewness=raw,
            transformed_skewness=transformed,
        )
    return ScreeningDecision(
        name,
        "continuous",
        "transformed",
        f"log1p brings |skewness| {abs(raw):.2f} down to {abs(transformed):.2f}",
        raw_skewness=raw,
        transformed_skewness=transformed,
    )


def screen_predictors(
    table: Mapping[str, Sequence[float]],
    kinds: Mapping[str, VariableKind],
    config: ScreeningConfig | None = None,
) -> ScreeningReport:
    """Screen every variable in the table, one decision each."""
    config = config or ScreeningConfig()
    variables = []
    for name, values in table.items():
        kind = kinds.get(name)
        if kind not in KINDS:
            raise ValueError(f"variable {name!r} needs a kind in {KINDS}, got {kind!r}")
        column = np.asarray(values, dtype=float)
        if kind == "binary":
            variables.append(_screen_binary(name, column, config))
        else:
            variables.append(_screen_continuous(name, column, config))
    return ScreeningReport(config=config, variables=variables)


def write_screening_report(report: ScreeningReport, path: str | Path) -> None:
    write_json(path, report)
