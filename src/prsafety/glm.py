"""Binary logistic regression fit by iteratively reweighted least squares.

The log-likelihood for outcomes y in {0, 1} with linear predictor eta = X b is

    ll(b) = sum_i [ y_i eta_i - log(1 + exp(eta_i)) ]

IRLS solves the score equations X' (y - p) = 0 by repeated weighted least
squares: with p = sigmoid(eta) and W = diag(p (1 - p)), each step solves

    (X' W X) b_new = X' W z,     z = eta + (y - p) / W

which is the Newton-Raphson step expressed as a regression on the working
response z.  Iteration stops when the absolute log-likelihood change falls
below the tolerance.  Standard errors come from the inverse Fisher
information (X' W X)^-1 at the optimum, Wald z statistics are b / se with
two-sided normal p-values, and odds ratios are exp(b).

encode_design builds the design matrix of a ModelSpec from a frame of
columns: a mapping from each variable to an equal-length sequence.

Quasi-separation makes the MLE drift to infinity; it is reported as an error
(a raw, unstandardized coefficient beyond +-20 on any column, or failure to
converge) rather than returned as a garbage fit.  Rank-deficient designs are
rejected up front with the names of the dependent columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import REPO_SIZES

INTERCEPT_NAME = "Intercept"

# A raw (unstandardized) |beta| beyond this on any coordinate is runaway growth.
SEPARATION_BOUND = 20.0


class DesignError(ValueError):
    """Invalid design matrix or model frame."""


class RankDeficiencyError(DesignError):
    """Design matrix columns are linearly dependent."""

    def __init__(self, columns: Sequence[str]):
        self.columns = tuple(columns)
        super().__init__(
            "design matrix is rank deficient; dependent columns: " + ", ".join(self.columns)
        )


class SeparationError(RuntimeError):
    """Outcome is (quasi-)separable; the MLE does not exist."""

    def __init__(self, column: str, detail: str):
        self.column = column
        super().__init__(f"quasi-separation detected on column {column!r}: {detail}")


@dataclass(frozen=True)
class ModelSpec:
    """Declarative description of one regression.

    categorical maps a variable to its ordered levels.  The first level
    that occurs in the kept rows is the reference; dummies are emitted for
    the other levels that occur there.  transforms maps a variable to a
    named transform applied at encoding time (only "log1p" is defined).
    """

    name: str
    outcome: str
    predictors: tuple[str, ...]
    categorical: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    transforms: Mapping[str, str] = field(default_factory=dict)


@dataclass
class DesignMatrix:
    X: np.ndarray
    y: np.ndarray
    columns: tuple[str, ...]
    n_dropped: int


def encode_design(frame: Mapping[str, Sequence], spec: ModelSpec) -> DesignMatrix:
    """Build the design matrix for a model spec from a frame of columns.

    frame maps each variable to a column, all of one length.  Adds an
    intercept column of ones, expands categoricals into dummy columns named
    "var (level)", applies declared transforms, drops rows where the outcome
    or a predictor is None or NaN or has no column (counted), and validates
    that the outcome is binary and that no predictor column is constant.
    """
    names = (spec.outcome, *spec.predictors)
    given = {
        name: frame[name] if isinstance(frame[name], np.ndarray) else np.array(frame[name], object)
        for name in names
        if name in frame
    }
    # Elementwise: None is missing, and so is NaN, the one value unequal to
    # itself.  An absent column is missing on every row.
    keep = np.full(len(next(iter(given.values()), ())), len(given) == len(names))
    for column in given.values():
        keep &= (column != None) & (column == column)
    n_dropped = len(keep) - int(keep.sum())
    if not keep.any():
        raise DesignError("no complete rows left after dropping missing values")
    complete = {name: column[keep] for name, column in given.items()}

    y = np.asarray(complete[spec.outcome], dtype=float)
    if not set(np.unique(y)) <= {0.0, 1.0}:
        bad = sorted(set(np.unique(y)) - {0.0, 1.0})
        raise DesignError(f"outcome {spec.outcome!r} takes values outside {{0, 1}}: {bad}")

    columns: list[str] = [INTERCEPT_NAME]
    data: list[np.ndarray] = [np.ones(len(y))]

    for name in spec.predictors:
        values = complete[name]
        if name in spec.categorical:
            levels = spec.categorical[name]
            observed = set(values.tolist())
            unknown = observed - set(levels)
            if unknown:
                raise DesignError(f"{name!r} has undeclared levels: {sorted(unknown)}")
            # The first declared level that occurs is the reference; absent
            # levels produce no column (an all-zero dummy is a constant column).
            present = [level for level in levels if level in observed]
            for level in present[1:]:
                columns.append(f"{name} ({level})")
                data.append((values == level).astype(float))
            continue
        try:
            column = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            raise DesignError(f"predictor {name!r} is not numeric; declare it categorical") from None
        transform = spec.transforms.get(name)
        if transform == "log1p":
            if column.min() < 0:
                raise DesignError(f"log1p transform on {name!r} needs non-negative values")
            column = np.log1p(column)
        elif transform is not None:
            raise DesignError(f"unknown transform {transform!r} on {name!r}")
        columns.append(name)
        data.append(column)

    X = np.column_stack(data)
    for j, name in enumerate(columns):
        if name != INTERCEPT_NAME and np.all(X[:, j] == X[0, j]):
            raise DesignError(f"predictor column {name!r} is constant")
    return DesignMatrix(X=X, y=y, columns=tuple(columns), n_dropped=n_dropped)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    expo = np.exp(eta[~pos])
    out[~pos] = expo / (1.0 + expo)
    return out


def log_likelihood(X: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    """Bernoulli log-likelihood at beta, computed without overflow."""
    eta = X @ beta
    return float(np.sum(y * eta) - np.sum(np.logaddexp(0.0, eta)))


def _check_rank(X: np.ndarray, columns: Sequence[str]) -> None:
    n, p = X.shape
    _, singular, vt = np.linalg.svd(X, full_matrices=False)
    tol = singular[0] * max(n, p) * np.finfo(float).eps if singular.size else 0.0
    deficient = singular <= tol
    if not np.any(deficient):
        return
    involved: list[str] = []
    for row in vt[deficient]:
        for j, weight in enumerate(row):
            if abs(weight) > 1e-8 and columns[j] not in involved:
                involved.append(columns[j])
    raise RankDeficiencyError(involved or list(columns))


@dataclass
class LogisticFit:
    columns: tuple[str, ...]
    coefficients: np.ndarray
    standard_errors: np.ndarray
    z_values: np.ndarray
    p_values: np.ndarray
    covariance: np.ndarray
    log_likelihood: float
    deviance: float
    aic: float
    bic: float
    n_observations: int
    iterations: int
    converged: bool

    def to_json(self) -> dict:
        return {
            "columns": list(self.columns),
            "coefficients": [float(v) for v in self.coefficients],
            "standard_errors": [float(v) for v in self.standard_errors],
            "z_values": [float(v) for v in self.z_values],
            "p_values": [float(v) for v in self.p_values],
            "odds_ratios": [float(math.exp(v)) for v in self.coefficients],
            "covariance": [[float(v) for v in row] for row in self.covariance],
            "log_likelihood": self.log_likelihood,
            "deviance": self.deviance,
            "aic": self.aic,
            "bic": self.bic,
            "n_observations": self.n_observations,
            "iterations": self.iterations,
            "converged": self.converged,
        }


def normal_sf_two_sided(z: float) -> float:
    """Two-sided tail probability of the standard normal, 2 (1 - Phi(|z|))."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    columns: Sequence[str] | None = None,
    tol: float = 1e-8,
    max_iter: int = 100,
) -> LogisticFit:
    """Maximum-likelihood logistic fit via IRLS.

    Convergence is declared when the absolute change in log-likelihood
    between iterations drops below tol.  Raises RankDeficiencyError for
    dependent columns and SeparationError when coefficients run away or the
    iteration fails to converge, naming the worst column.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DesignError("X must be a 2-d array")
    n, p = X.shape
    if y.shape != (n,):
        raise DesignError(f"y has shape {y.shape}, expected ({n},)")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise DesignError("outcome must be coded 0/1")
    names = tuple(columns) if columns is not None else tuple(f"x{j}" for j in range(p))
    if len(names) != p:
        raise DesignError(f"got {len(names)} column names for {p} columns")
    _check_rank(X, names)

    beta = np.zeros(p)
    ll = log_likelihood(X, y, beta)
    converged = False
    iterations = 0

    def worst_column() -> str:
        return names[int(np.argmax(np.abs(beta)))]

    for iterations in range(1, max_iter + 1):
        eta = X @ beta
        prob = _sigmoid(eta)
        weights = np.maximum(prob * (1.0 - prob), 1e-12)
        z = eta + (y - prob) / weights
        XtW = X.T * weights
        try:
            beta = np.linalg.solve(XtW @ X, XtW @ z)
        except np.linalg.LinAlgError:
            raise SeparationError(worst_column(), "weighted normal equations became singular") from None
        if not np.all(np.isfinite(beta)):
            raise SeparationError(worst_column(), "coefficients diverged to non-finite values")
        ll_new = log_likelihood(X, y, beta)
        if abs(ll_new - ll) < tol:
            ll = ll_new
            converged = True
            break
        ll = ll_new

    if float(np.max(np.abs(beta))) > SEPARATION_BOUND:
        raise SeparationError(
            worst_column(),
            f"|coefficient| exceeded {SEPARATION_BOUND} (got {float(np.max(np.abs(beta))):.2f})",
        )
    if not converged:
        raise SeparationError(worst_column(), f"IRLS did not converge in {max_iter} iterations")

    prob = _sigmoid(X @ beta)
    weights = np.maximum(prob * (1.0 - prob), 1e-12)
    fisher = (X.T * weights) @ X
    covariance = np.linalg.inv(fisher)
    se = np.sqrt(np.diag(covariance))
    z_values = beta / se
    p_values = np.array([normal_sf_two_sided(z) for z in z_values])

    return LogisticFit(
        columns=names,
        coefficients=beta,
        standard_errors=se,
        z_values=z_values,
        p_values=p_values,
        covariance=covariance,
        log_likelihood=ll,
        deviance=-2.0 * ll,
        aic=2.0 * p - 2.0 * ll,
        bic=p * math.log(n) - 2.0 * ll,
        n_observations=n,
        iterations=iterations,
        converged=converged,
    )


def significance_stars(p_value: float) -> str:
    """Star markers: *** below 0.001, ** below 0.01, * below 0.05."""
    if p_value < 0.001:
        return "***"
    if p_value < 0.01:
        return "**"
    if p_value < 0.05:
        return "*"
    return ""


@dataclass(frozen=True)
class OddsRatioRow:
    name: str
    coefficient: float
    standard_error: float
    odds_ratio: float
    p_value: float
    stars: str


def odds_ratios(fit: LogisticFit) -> list[OddsRatioRow]:
    rows = []
    for j, name in enumerate(fit.columns):
        p_value = float(fit.p_values[j])
        rows.append(
            OddsRatioRow(
                name=name,
                coefficient=float(fit.coefficients[j]),
                standard_error=float(fit.standard_errors[j]),
                odds_ratio=float(math.exp(fit.coefficients[j])),
                p_value=p_value,
                stars=significance_stars(p_value),
            )
        )
    return rows


def vif(X: np.ndarray, columns: Sequence[str]) -> dict[str, float]:
    """Variance inflation factors, one per non-intercept column.

    Each column is regressed on all the others (intercept included) and
    VIF_j = 1 / (1 - R^2_j).  Exact collinearity yields float inf.
    """
    X = np.asarray(X, dtype=float)
    names = tuple(columns)
    if X.shape[1] != len(names):
        raise DesignError(f"got {len(names)} column names for {X.shape[1]} columns")
    out: dict[str, float] = {}
    for j, name in enumerate(names):
        if name == INTERCEPT_NAME:
            continue
        target = X[:, j]
        others = np.delete(X, j, axis=1)
        if INTERCEPT_NAME not in names:
            others = np.column_stack([np.ones(X.shape[0]), others])
        coef, *_ = np.linalg.lstsq(others, target, rcond=None)
        residual = target - others @ coef
        ss_res = float(residual @ residual)
        centered = target - target.mean()
        ss_tot = float(centered @ centered)
        if ss_tot == 0.0:
            out[name] = math.inf
            continue
        r_squared = 1.0 - ss_res / ss_tot
        out[name] = math.inf if r_squared >= 1.0 - 1e-12 else 1.0 / (1.0 - r_squared)
    return out


# Variance inflation factors at or above this flag a collinear design.
VIF_THRESHOLD = 5.0


def vif_gate(vifs: Mapping[str, float], threshold: float = VIF_THRESHOLD) -> bool:
    """True when every factor sits below the threshold."""
    return all(value < threshold for value in vifs.values())


# Canned regression specifications.  All three share the control block
# (repo_size is dummy coded against its first observed level, small when a
# small repository is kept); watchers is not a control anywhere, its
# post-transform skewness stays out of range.
CONTROL_PREDICTORS = (
    "core_member",
    "contrib_rate_author",
    "followers",
    "num_languages",
    "contrib_follow_integrator",
    "social_strength",
    "repo_size",
)

def canned_model_specs(transforms: Mapping[str, str] | None = None) -> tuple[ModelSpec, ...]:
    """The three standard models.

    Model 1 regresses the 12-month sustained outcome on the repository
    index plus controls; Model 2 swaps in the recent-participation outcome;
    Model 3 keeps that outcome and adds the 12-month flag as a predictor.
    """
    transforms = dict(transforms or {})
    categorical = {"repo_size": REPO_SIZES}
    base = ("PS_index_repository",) + CONTROL_PREDICTORS
    return (
        ModelSpec(
            name="model_1",
            outcome="sustainedp_or_not_12",
            predictors=base,
            categorical=categorical,
            transforms=transforms,
        ),
        ModelSpec(
            name="model_2",
            outcome="recent_sustainedp_or_not",
            predictors=base,
            categorical=categorical,
            transforms=transforms,
        ),
        ModelSpec(
            name="model_3",
            outcome="recent_sustainedp_or_not",
            predictors=("sustainedp_or_not_12",) + base,
            categorical=categorical,
            transforms=transforms,
        ),
    )
