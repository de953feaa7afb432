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
rather than returned as a garbage fit.  Rank-deficient designs are rejected
up front with the names of the dependent columns, found from the SVD of the
p x p factor R of X = QR.  Then, still before IRLS, a cell scan names an
empty cell of any 0/1 column's 2 x 2 table with the outcome (the structural
case: every sustained contributor is recent, so model 3 has no MLE).  After
IRLS, runaway growth is a linear predictor X b whose sd exceeds 20, or a
failure to converge.  The sd of X b is |b_j| sd(x_j) for a single column
and puts every column on its own scale at once: the intercept adds nothing
to it, and neither rescaling a column nor choosing another reference level
of a factor moves it.  A fit whose last IRLS step still moved X b by more
than 0.1 is drifting along a separating direction; that catches a separating
combination the scan cannot see, such as a factor's reference level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .corpus import REPO_SIZES

INTERCEPT_NAME = "Intercept"

# A linear predictor X beta whose sd exceeds this is runaway growth.
SEPARATION_BOUND = 20.0

# Along a separating direction the likelihood flattens while each IRLS step
# still moves the linear predictor by about 1, so a fit whose last step moved
# it by more than DRIFT_BOUND is drifting, whatever the columns' coding.
DRIFT_BOUND = 0.1

# IRLS stops once the log-likelihood moves by less than IRLS_TOL, and a fit
# still moving after IRLS_MAX_ITER iterations has not converged.
IRLS_TOL = 1e-8
IRLS_MAX_ITER = 100

# Variance inflation factors at or above this flag a collinear design.
VIF_THRESHOLD = 5.0


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
    # X = QR, so the factor R (p x p when n > p) has X's singular values and
    # right singular vectors, without an n x p SVD workspace.
    _, singular, vt = np.linalg.svd(np.linalg.qr(X, mode="r"), full_matrices=False)
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


def _check_cells(X: np.ndarray, y: np.ndarray, columns: Sequence[str]) -> None:
    """Raise SeparationError on the first empty cell of a 0/1 column's table with y.

    For each column whose values are all 0 or 1, and each value v it takes,
    both outcomes must occur on some row with x = v.  An empty cell is a
    quasi-separating direction (Albert & Anderson 1984): +-e_j for an x = 1
    cell, +-(ones - e_j) for an x = 0 cell, so x = 0 cells count only when
    X holds a column of ones.  That column is checked too: a constant
    outcome leaves one of its cells empty.
    """
    n = y.size
    binary = np.flatnonzero(np.all((X == 0.0) | (X == 1.0), axis=0))
    indicators = X[:, binary]
    ones = indicators.sum(axis=0)  # rows with x = 1
    ones_y = y @ indicators  # rows with x = 1 and outcome 1
    positives = float(y.sum())
    cells = {
        (0, 0): (n - ones) - (positives - ones_y),
        (0, 1): positives - ones_y,
        (1, 0): ones - ones_y,
        (1, 1): ones_y,
    }
    values = (0, 1) if np.any(ones == n) else (1,)
    for k, j in enumerate(binary):
        for v in values:
            if ones[k] == (n if v == 0 else 0):
                continue  # the column never takes v
            for o in (0, 1):
                if cells[v, o][k] == 0:
                    raise SeparationError(columns[j], f"no row has {columns[j]} = {v} and outcome {o}")


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

    @property
    def odds_ratios(self) -> list[float]:
        """exp(beta) per column."""
        return [math.exp(v) for v in self.coefficients]

    def to_json(self) -> dict:
        """Every field, arrays as lists, and the odds ratios."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {
            **{name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values},
            "odds_ratios": self.odds_ratios,
        }


def normal_sf_two_sided(z: float) -> float:
    """Two-sided tail probability of the standard normal, 2 (1 - Phi(|z|))."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def fit_logistic(X: np.ndarray, y: np.ndarray, columns: Sequence[str] | None = None) -> LogisticFit:
    """Maximum-likelihood logistic fit via IRLS.

    Convergence is declared when the absolute change in log-likelihood
    between iterations drops below IRLS_TOL.  Raises RankDeficiencyError for
    dependent columns.  Raises SeparationError before the first iteration
    on an empty cell of a 0/1 column (_check_cells), and after the last one
    when the sd of X beta exceeds SEPARATION_BOUND, when the iteration
    fails to converge, or when the step that converged still moved X beta
    by more than DRIFT_BOUND, naming the column furthest out on its own
    scale.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DesignError("X must be a 2-d array")
    n, p = X.shape
    if n == 0:
        raise DesignError("X has no rows")
    if y.shape != (n,):
        raise DesignError(f"y has shape {y.shape}, expected ({n},)")
    if not set(np.unique(y)) <= {0.0, 1.0}:
        raise DesignError("outcome must be coded 0/1")
    names = tuple(columns) if columns is not None else tuple(f"x{j}" for j in range(p))
    if len(names) != p:
        raise DesignError(f"got {len(names)} column names for {p} columns")
    _check_rank(X, names)
    _check_cells(X, y, names)

    beta = np.zeros(p)
    ll = log_likelihood(X, y, beta)
    converged = False
    iterations = 0
    sd = X.std(axis=0)

    def worst_column() -> str:
        """The column whose coefficient is furthest out on its own scale."""
        return names[int(np.argmax(np.abs(beta) * sd))]

    for iterations in range(1, IRLS_MAX_ITER + 1):
        eta = X @ beta
        prob = _sigmoid(eta)
        weights = np.maximum(prob * (1.0 - prob), 1e-12)
        z = eta + (y - prob) / weights
        XtW = X.T * weights
        previous = beta
        try:
            beta = np.linalg.solve(XtW @ X, XtW @ z)
        except np.linalg.LinAlgError:
            raise SeparationError(worst_column(), "weighted normal equations became singular") from None
        if not np.all(np.isfinite(beta)):
            # Named directly: an infinite coefficient times a zero sd is NaN.
            column = names[int(np.argmin(np.isfinite(beta)))]
            raise SeparationError(column, "coefficients diverged to non-finite values")
        ll_new = log_likelihood(X, y, beta)
        if abs(ll_new - ll) < IRLS_TOL:
            ll = ll_new
            converged = True
            break
        ll = ll_new

    growth = float(np.std(X @ beta))
    if growth > SEPARATION_BOUND:
        raise SeparationError(
            worst_column(), f"sd of the linear predictor exceeded {SEPARATION_BOUND} (got {growth:.2f})"
        )
    if not converged:
        raise SeparationError(worst_column(), f"IRLS did not converge in {IRLS_MAX_ITER} iterations")
    step = beta - previous
    drift = float(np.max(np.abs(X @ step)))
    if drift > DRIFT_BOUND:
        raise SeparationError(
            names[int(np.argmax(np.abs(step) * sd))],
            f"the linear predictor still moved by {drift:.2f} in the last IRLS step",
        )
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


def vif_gate(vifs: Mapping[str, float]) -> bool:
    """True when every factor sits below VIF_THRESHOLD."""
    return all(value < VIF_THRESHOLD for value in vifs.values())


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
