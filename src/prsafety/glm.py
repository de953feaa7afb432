"""Binary logistic regression fit by iteratively reweighted least squares.

The log-likelihood for outcomes y in {0, 1} with linear predictor eta = X b is

    ll(b) = sum_i w_i [ y_i eta_i - log(1 + exp(eta_i)) ]

IRLS solves the score equations X' w (y - p) = 0 by repeated weighted least
squares: with p = sigmoid(eta) and W = diag(w p (1 - p)), each step solves

    (X' W X) b_new = X' W z,     z = eta + (y - p) / (p (1 - p))

which is the Newton-Raphson step expressed as a regression on the working
response z.  It is solved as R b_new = Q' W^(1/2) z from W^(1/2) X = QR,
never forming X' W X, whose condition number is the square of R's: near
separation the separated rows' curvature shrinks like exp(-|eta|), and the
normal equations would lose the separating direction to rounding.
Iteration stops when the absolute log-likelihood change falls below the
tolerance.  Standard errors come from the inverse Fisher information
(X' W X)^-1 at the optimum, Wald z statistics are b / se with two-sided
normal p-values, and odds ratios are exp(b).

encode_design builds the design matrix of a ModelSpec from a frame of
columns: a mapping from each variable to an equal-length sequence.  Rows may
carry frequency weights w (McCullagh & Nelder 1989, section 4.2): every sum
and check is weighted, so a fit is that of the rows repeated w times.

Quasi-separation makes the MLE drift to infinity; it is reported as an error
rather than returned as a garbage fit.  The MLE exists exactly when no
direction d has X d >= 0 on the y = 1 rows, X d <= 0 on the y = 0 rows and
X d != 0 (Albert & Anderson 1984): a condition on signs, so no bound on the
size of X b takes part.  Rank-deficient designs are rejected up front with
the names of the dependent columns, found from the SVD of the p x p factor
R of sqrt(w) X = QR.  Then, still before IRLS, a cell scan names an empty
cell of any 0/1 column's 2 x 2 table with the outcome (the structural case:
every sustained contributor is recent, so model 3 has no MLE).  During IRLS
a singular or non-finite step is separation, and after it a failure to
converge, or a last step that still moved X b by more than 0.1: along a
separating direction the likelihood flattens while each Newton step keeps
moving X b by about 1.  For that, the floor IRLS puts under a row's
curvature p (1 - p) applies only where the outcome disagrees with the sign
of X b; where it agrees, the floor would shrink the step.  The drift test
catches a separating combination the scan cannot see, such as a reference
level.  The column named is the one furthest out on its own scale
(|b_j| sd(x_j), or the same for the last step), which no rescaling of a
column moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Mapping, Sequence

import numpy as np

from .corpus import REPO_SIZES

INTERCEPT_NAME = "Intercept"

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

# exp of a larger number overflows a float; such an odds ratio is inf.
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


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
    weights: np.ndarray


def _frequency_weights(weights: Sequence[int] | None, n: int) -> np.ndarray:
    """weights as int64 (ones when None); DesignError unless n positive integers."""
    w = np.ones(n, dtype=np.int64) if weights is None else np.asarray(weights)
    if w.shape != (n,) or w.dtype.kind not in "iu" or not np.all(w >= 1):
        raise DesignError(f"weights must be {n} positive integers, one per row")
    return w.astype(np.int64)


def encode_design(
    frame: Mapping[str, Sequence], spec: ModelSpec, weights: Sequence[int] | None = None
) -> DesignMatrix:
    """Build the design matrix for a model spec from a frame of columns.

    frame maps each variable to a column, all of one length; weights gives
    each row's frequency (ones when None).  Adds an intercept column, dummy
    columns "var (level)" for categoricals and declared transforms; drops rows
    where the outcome or a predictor is None, NaN or absent (n_dropped sums
    their weights); rejects a non-binary outcome or a constant predictor.
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
    w = _frequency_weights(weights, len(keep))
    n_dropped = int(w[~keep].sum())
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
    return DesignMatrix(X=X, y=y, columns=tuple(columns), n_dropped=n_dropped, weights=w[keep])


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    out = np.empty_like(eta)
    pos = eta >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-eta[pos]))
    expo = np.exp(eta[~pos])
    out[~pos] = expo / (1.0 + expo)
    return out


def log_likelihood(
    X: np.ndarray, y: np.ndarray, beta: np.ndarray, weights: Sequence[int] | None = None
) -> float:
    """Bernoulli log-likelihood at beta, computed without overflow."""
    eta = X @ beta
    return float(_frequency_weights(weights, len(y)) @ (y * eta - np.logaddexp(0.0, eta)))


def _weighted_sd(values: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The population sd (per column) of the rows of values repeated by w."""
    return np.sqrt(w @ (values - w @ values / w.sum()) ** 2 / w.sum())


def _check_rank(X: np.ndarray, w: np.ndarray, columns: Sequence[str]) -> None:
    p = X.shape[1]
    # sqrt(w) X = QR: R has the repeated rows' singular values and right singular
    # vectors.  With fewer rows than columns, pad R with the zero rows it lacks.
    r = np.linalg.qr(X * np.sqrt(w)[:, None], mode="r")
    r = np.vstack([r, np.zeros((p - r.shape[0], p))])
    _, singular, vt = np.linalg.svd(r, full_matrices=False)
    tol = singular[0] * max(w.sum(), p) * np.finfo(float).eps if singular.size else 0.0
    deficient = singular <= tol
    if np.any(deficient):  # each such unit vector names at least one column
        raise RankDeficiencyError([columns[j] for j in range(p) if np.any(np.abs(vt[deficient, j]) > 1e-8)])


def _check_cells(X: np.ndarray, y: np.ndarray, w: np.ndarray, columns: Sequence[str]) -> None:
    """Raise SeparationError on the first empty cell of a 0/1 column's table with y.

    For each column whose values are all 0 or 1, and each value v it takes,
    both outcomes must occur on some row with x = v; the cells count the
    rows' weights.  An empty cell is a quasi-separating direction (Albert &
    Anderson 1984): +-e_j for an x = 1 cell, +-(ones - e_j) for an x = 0
    cell, so x = 0 cells count only when X holds a column of ones.  That
    column is checked too: a constant outcome leaves one of its cells empty.
    """
    n = w.sum()
    binary = np.flatnonzero(np.all((X == 0.0) | (X == 1.0), axis=0))
    indicators = X[:, binary]
    ones = w @ indicators  # rows with x = 1
    ones_y = (w * y) @ indicators  # rows with x = 1 and outcome 1
    positives = float(w @ y)
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
        """exp(beta) per column; inf past the float range."""
        return [math.exp(v) if v <= _LOG_FLOAT_MAX else math.inf for v in self.coefficients]

    def to_json(self) -> dict:
        """Every field, arrays as lists, and the odds ratios (an infinite one as None)."""
        values = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {
            **{name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values},
            "odds_ratios": [v if math.isfinite(v) else None for v in self.odds_ratios],
        }


def normal_sf_two_sided(z: float) -> float:
    """Two-sided tail probability of the standard normal, 2 (1 - Phi(|z|))."""
    return math.erfc(abs(z) / math.sqrt(2.0))


def fit_logistic(
    X: np.ndarray, y: np.ndarray, columns: Sequence[str] | None = None, weights: Sequence[int] | None = None
) -> LogisticFit:
    """Maximum-likelihood logistic fit via IRLS, each row counted weights times.

    Convergence is declared when the absolute change in log-likelihood
    between iterations drops below IRLS_TOL.  Raises RankDeficiencyError for
    dependent columns.  Raises SeparationError before the first iteration
    on an empty cell of a 0/1 column (_check_cells); during it when the
    weighted normal equations are singular or the step is not finite; and
    after the last one when the iteration fails to converge within
    IRLS_MAX_ITER, or when the step that converged still moved X beta by
    more than DRIFT_BOUND, naming the column furthest out on its own scale.
    A finite MLE fits however large X beta is.  Sums, sds, n_observations
    and BIC's log n count the weights.
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
    w = _frequency_weights(weights, n)
    _check_rank(X, w, names)
    _check_cells(X, y, w, names)

    beta = np.zeros(p)
    ll = log_likelihood(X, y, beta, w)
    converged = False
    iterations = 0
    sd = _weighted_sd(X, w)

    def furthest(change: np.ndarray) -> str:
        """The column change moves furthest on its own scale; the first of those tied to rounding."""
        scaled = np.abs(change) * sd
        return names[int(np.argmax(scaled >= scaled.max() * (1.0 - 1e-9)))]

    for iterations in range(1, IRLS_MAX_ITER + 1):
        eta = X @ beta
        prob = _sigmoid(eta)
        curvature = np.maximum(prob * (1.0 - prob), 1e-12)
        z = eta + (y - prob) / curvature
        # The floor keeps z finite on a row whose outcome disagrees with a
        # large |eta|.  A row that agrees takes its exact curvature
        # t / (1 + t)^2 and response eta +- (1 + t), t = exp(-|eta|).
        agree = (curvature == 1e-12) & ((eta > 0) == (y == 1.0))
        tail = np.exp(-np.abs(eta[agree]))
        curvature[agree] = tail / (1.0 + tail) ** 2
        z[agree] = eta[agree] + np.sign(eta[agree]) * (1.0 + tail)
        previous = beta
        try:
            # R of [W^(1/2) X, W^(1/2) z] holds R of W^(1/2) X and Q' W^(1/2) z.
            r = np.linalg.qr(np.column_stack([X, z]) * np.sqrt(w * curvature)[:, None], mode="r")
            beta = np.linalg.solve(r[:p, :p], r[:p, p])
        except np.linalg.LinAlgError:
            raise SeparationError(furthest(beta), "weighted normal equations became singular") from None
        if not np.all(np.isfinite(beta)):
            # Named directly: an infinite coefficient times a zero sd is NaN.
            column = names[int(np.argmin(np.isfinite(beta)))]
            raise SeparationError(column, "coefficients diverged to non-finite values")
        ll_new = log_likelihood(X, y, beta, w)
        if abs(ll_new - ll) < IRLS_TOL:
            ll = ll_new
            converged = True
            break
        ll = ll_new

    if not converged:
        raise SeparationError(furthest(beta), f"IRLS did not converge in {IRLS_MAX_ITER} iterations")
    step = beta - previous
    drift = float(np.max(np.abs(X @ step)))
    if drift > DRIFT_BOUND:
        raise SeparationError(
            furthest(step),
            f"the linear predictor still moved by {drift:.2f} in the last IRLS step",
        )
    prob = _sigmoid(X @ beta)
    fisher = (X.T * (w * np.maximum(prob * (1.0 - prob), 1e-12))) @ X
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
        bic=p * math.log(w.sum()) - 2.0 * ll,
        n_observations=int(w.sum()),
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


def vif(X: np.ndarray, columns: Sequence[str], weights: Sequence[int] | None = None) -> dict[str, float]:
    """Variance inflation factors, one per non-intercept column.

    Each column is regressed on all the others (intercept included) by weighted
    least squares and VIF_j = 1 / (1 - R^2_j).  Exact collinearity yields float inf.
    """
    X = np.asarray(X, dtype=float)
    names = tuple(columns)
    if X.shape[1] != len(names):
        raise DesignError(f"got {len(names)} column names for {X.shape[1]} columns")
    w = _frequency_weights(weights, X.shape[0])
    scaled = X * np.sqrt(w)[:, None]
    out: dict[str, float] = {}
    for j, name in enumerate(names):
        if name == INTERCEPT_NAME:
            continue
        target = scaled[:, j]
        others = np.delete(scaled, j, axis=1)
        if INTERCEPT_NAME not in names:
            others = np.column_stack([np.sqrt(w), others])
        coef, *_ = np.linalg.lstsq(others, target, rcond=None)
        residual = target - others @ coef
        ss_res = float(residual @ residual)
        ss_tot = float(w @ (X[:, j] - w @ X[:, j] / w.sum()) ** 2)
        # 1 / (1 - R^2) is ss_tot / ss_res; R^2 within 1e-12 of 1 is collinear.
        out[name] = math.inf if ss_tot == 0.0 or ss_res <= 1e-12 * ss_tot else ss_tot / ss_res
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
    base = ("PS_index_repository",) + CONTROL_PREDICTORS
    models = (
        ("sustainedp_or_not_12", base),
        ("recent_sustainedp_or_not", base),
        ("recent_sustainedp_or_not", ("sustainedp_or_not_12",) + base),
    )
    return tuple(
        ModelSpec(f"model_{i}", outcome, predictors, {"repo_size": REPO_SIZES}, dict(transforms or {}))
        for i, (outcome, predictors) in enumerate(models, start=1)
    )
