"""Reconstruction, classification, model learning, and sequential testing.

Reconstruction solves the per-class ridge problem
    min_a ||y - R V_g a||^2 + sigma2 * a^T diag(1/lambda_g) a
in closed form (a Wiener filter in the coefficient domain), selects the
class with the smallest objective, and maps back to signal space. One
eigendecomposition of each class's inner matrix R Sigma_g R^T + sigma2 I
serves both the coefficients and the minimum of the objective, which is
the Gaussian quadratic form sigma2 * y_c^T (R Sigma_g R^T + sigma2 I)^-1 y_c
(y_c the class-centered measurements), so no reconstruction or residual is
formed to score a class. At sigma2 = 0 the minimum is the residual alone:
0 for every class whose projected covariance is full rank, so such exact
fits tie and the lowest index among them wins.
Classification from raw measurements uses the Gaussian measurement-space
criterion (quadratic form plus log-determinant, no prior term). Sequential
hypothesis testing stops acquiring once some class beats every other by a
posterior-ratio threshold derived from the target error rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import floor_eigenvalues, symmetrize
from .adaptive import AcquisitionState, AscentOptions, design_classification_block
from .design import as_rows
from .model import (
    GaussianComponent,
    GmmModel,
    _check_sigma2,
    _readonly,
    _require_finite,
    m_step_update,
)

__all__ = [
    "ReconstructionResult",
    "ShtOutcome",
    "wiener_coefficients",
    "map_reconstruct",
    "map_classify",
    "map_em",
    "sht_run",
]


@dataclass(frozen=True)
class ReconstructionResult:
    """Model-selected reconstruction of one signal.

    selected_class is the 1-based argmin of objective_values (ties go to
    the lowest index); signal_estimate equals basis @ coefficients + mean
    of the selected component.
    """

    selected_class: int
    coefficients: np.ndarray
    signal_estimate: np.ndarray
    objective_values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _readonly(self.coefficients))
        object.__setattr__(self, "signal_estimate", _readonly(self.signal_estimate))
        object.__setattr__(self, "objective_values", _readonly(self.objective_values))
        if not 1 <= self.selected_class <= self.objective_values.shape[0]:
            raise ValueError("selected_class out of range")
        if self.selected_class != int(np.argmin(self.objective_values)) + 1:
            raise ValueError("selected_class must be the argmin of the objectives")


def wiener_coefficients(
    y: np.ndarray, sensing, component: GaussianComponent, sigma2: float
) -> np.ndarray:
    """Closed-form ridge coefficients for one component.

    Computes diag(lambda) V^T R^T (R Sigma R^T + sigma2 I)^-1 y, the exact
    minimizer of the per-class objective. y is one measurement vector of
    shape (m,) or a batch of shape (S, m) sensed with the same rows; the
    coefficients come back as (N,) or (S, N), as (y U) C from the class's
    one factorization (see _wiener_solver). The measurements must already
    be centered by the component's projected mean. With sigma2 = 0 the
    inner inverse relies on eigenvalue flooring. Raises ValueError for a
    non-finite measurement (naming the first bad signal) and for a sigma2
    that is not finite or is negative.
    """
    rows = as_rows(sensing)
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != rows.shape[0]:
        raise ValueError("measurement length does not match the sensing rows")
    if rows.shape[1] != component.dimension:
        raise ValueError("sensing width does not match the component dimension")
    _check_sigma2(sigma2)
    _require_finite(np.atleast_2d(y), "measurements")
    vecs, coef_map, _ = _wiener_solver(rows, component, sigma2)
    return (y @ vecs) @ coef_map


def _wiener_solver(rows: np.ndarray, component: GaussianComponent, sigma2: float):
    """One factorization of a class's inner matrix, shared by every solve.

    Takes eigh of the inner matrix R Sigma R^T + sigma2 I = U diag(d) U^T
    and floors d to d~ (floor_eigenvalues) where it is inverted. Returns
    (U, C, omega) for centered measurements y with z = y U:
    - C = diag(1/d~) U^T R V Lambda (m x N), so the ridge coefficients
      are z C;
    - omega (m,), so the minimum of the ridge objective
      ||y - R V a||^2 + sigma2 a^T Lambda^-1 a is (z * z) omega.
    Along u_i the minimizer leaves the squared residual (sigma2 / d_i)^2
    z_i^2 and the penalty sigma2 (d_i - sigma2) z_i^2 / d_i^2, which add to
    omega_i z_i^2 with omega_i = sigma2 / d_i: the objective is the
    Gaussian quadratic form sigma2 y^T (R Sigma R^T + sigma2 I)^-1 y. A
    floored direction (d_i below the floor, so sigma2 is too) carries no
    signal and stays whole in the residual: omega_i = 1. sigma2 / d~_i
    there would zero the residual of a sigma2 = 0 low-rank class, its only
    discriminating term; the floored solve's (1 - d_i / d~_i)^2 would count
    the rounding noise in d_i at first order (about 1e-6 relative at the
    1e-10 floor). At sigma2 = 0 a class whose projected covariance is full
    rank fits every y exactly: omega is 0 and so is its objective.
    """
    inner = rows @ component.covariance @ rows.T + sigma2 * np.eye(rows.shape[0])
    vals, vecs = np.linalg.eigh(symmetrize(inner))
    floored = floor_eigenvalues(vals)
    lifted = (rows @ component.basis) * component.eigenvalues  # R V Lambda
    coef_map = (vecs.T @ lifted) / floored[:, None]
    weights = np.where(vals < floored, 1.0, sigma2 / floored)
    return vecs, coef_map, weights


# Signals per E-step chunk. A chunk never holds a single signal when the
# batch has more: a one-row matmul takes numpy's matrix-vector path, which
# rounds differently from the same row inside a larger product.
_CHUNK = 2048


def _chunks(n_sig: int):
    """(start, stop) bounds of the E-step chunks; a 1-signal tail joins the last."""
    edges = list(range(0, n_sig, _CHUNK)) + [n_sig]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return zip(edges[:-1], edges[1:])


def _class_objectives(
    y_rows: np.ndarray, rows: np.ndarray, model: GmmModel, sigma2: float
):
    """Streaming E-step: per-class objectives and each signal's best class.

    y_rows has one measurement vector per row, all sensed with the same
    rows. Returns (objectives (G, S), labels (S,), coefficients (S, N)):
    labels are the 0-based argmin over classes (ties go to the lowest
    index, as np.argmin) and coefficients are the winning class's ridge
    coefficients. Each class's inner matrix is factorized once
    (_wiener_solver); per chunk a class then costs two matrix products,
    z = (y - R mu) U and the coefficients z C, and its objectives are the
    closed-form quadratic form (z * z) omega, with no reconstruction or
    residual formed. At sigma2 = 0 every class whose projected covariance
    is full rank scores exactly 0, so the lowest such index wins. The
    coefficients are computed for the whole chunk before the winners are
    taken (a one-row product takes numpy's matrix-vector path), but BLAS
    can still round a short chunk differently: the coefficients may move
    in the last bits with the chunk size (1e-13 relative seen), while the
    objectives and labels have stayed bitwise. Signals are processed in
    chunks of _CHUNK, keeping the running best per signal, so working
    memory is O(_CHUNK * N + G * S) on top of the (S, M) input and the
    (S, N) output; no (G, S, N) array is formed.
    """
    n_sig = y_rows.shape[0]
    objectives = np.empty((model.n_components, n_sig))
    labels = np.zeros(n_sig, dtype=np.intp)
    coefficients = np.empty((n_sig, model.dimension))
    classes = [
        (rows @ comp.mean, *_wiener_solver(rows, comp, sigma2))
        for comp in model.components
    ]
    for start, stop in _chunks(n_sig):
        for gi, (projected_mean, vecs, coef_map, weights) in enumerate(classes):
            z = (y_rows[start:stop] - projected_mean) @ vecs  # (chunk, m)
            # Not (z * z) @ weights: a matrix-vector product can round a
            # row differently with the chunk's row count.
            obj = np.einsum("sm,sm,m->s", z, z, weights)
            alpha = z @ coef_map  # (chunk, N)
            objectives[gi, start:stop] = obj
            if gi == 0:
                best = obj
                coefficients[start:stop] = alpha
                continue
            wins = obj < best  # strict: ties stay with the lower index
            best[wins] = obj[wins]
            labels[start:stop][wins] = gi
            coefficients[start:stop][wins] = alpha[wins]
    return objectives, labels, coefficients


def map_reconstruct(
    y: np.ndarray, sensing, model: GmmModel, sigma2: float
) -> ReconstructionResult:
    """Reconstruct one signal with per-class ridge solves + model selection.

    Evaluates the objective ||y_c - R V_g a||^2 + sigma2 a^T diag(1/l) a at
    the closed-form minimizer for every class (y_c centered per class), in
    closed form from the class's one factorization (see _wiener_solver),
    picks the smallest, and returns the signal estimate mean + V a. At
    sigma2 = 0 the objective is the residual alone, exactly 0 for a class
    whose projected covariance is full rank; ties go to the lowest index.
    Raises ValueError for non-finite measurements and for a sigma2 that is
    not finite or is negative.
    """
    rows = as_rows(sensing)
    y = np.asarray(y, dtype=float).ravel()
    _check_sigma2(sigma2)
    _require_finite(y[None, :], "measurements")
    objectives, labels, coefficients = _class_objectives(y[None, :], rows, model, sigma2)
    comp = model.components[labels[0]]
    alpha = coefficients[0]
    return ReconstructionResult(
        selected_class=int(labels[0]) + 1,
        coefficients=alpha,
        signal_estimate=comp.mean + comp.basis @ alpha,
        objective_values=objectives[:, 0],
    )


def map_classify(state: AcquisitionState, model: GmmModel) -> int:
    """Measurement-space Gaussian classification of an acquisition history.

    Returns the 1-based argmax over classes of the joint measurement
    log-likelihoods the state stored when its last block was appended, so
    the class measurement covariances are not factorized again. That is
    the argmin of the centered quadratic form plus log-determinant of the
    class measurement covariance. No prior term enters; ties resolve to
    the lowest index.
    """
    if state.n_measurements < 1:
        raise ValueError("classification requires at least one measurement")
    if state.class_log_likelihoods.shape != (model.n_components,):
        raise ValueError("state likelihoods do not match the model's classes")
    return int(np.argmax(state.class_log_likelihoods)) + 1


def map_em(
    measurements: np.ndarray,
    sensing,
    model: GmmModel,
    sigma2: float,
    kappa: int,
) -> GmmModel:
    """Alternate reconstruction/model-selection with moment refits.

    Each iteration reconstructs every signal under the current model (best
    class + signal estimate) and refits the component moments from the
    reconstructed signals; the PCA factors are refreshed inside the moment
    update. kappa = 0 returns the model unchanged. All signals share the
    same sensing rows.

    The E-step factorizes each class's inner matrix once per iteration and
    scores every signal by the closed-form quadratic form of that
    factorization (see _wiener_solver); the winning class's coefficients
    come from the same factorization. At sigma2 = 0 every class whose
    projected covariance is full rank fits each signal exactly (objective
    0), so the lowest such index takes the signal: zero-noise learning
    separates classes only through rank-deficient projections. The E-step
    streams over signal chunks (see _class_objectives), so working memory
    is O(chunk * N + G * S) plus the (S, M) measurements and one (S, N)
    array of coefficients, turned into the estimates in place; no
    (G, S, N) array is formed. The chunk size can move the estimates, and
    so the refitted moments, in the last bits (see _class_objectives).
    Raises ValueError for a non-finite measurement (naming the first bad
    signal) and for a sigma2 that is not finite or is negative.
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    rows = as_rows(sensing)
    y_rows = np.asarray(measurements, dtype=float)
    if y_rows.ndim != 2 or y_rows.shape[1] != rows.shape[0]:
        raise ValueError("measurements must be (S, M) matching the sensing rows")
    _check_sigma2(sigma2)
    _require_finite(y_rows, "measurements")
    current = model
    for _ in range(kappa):
        _, labels, estimates = _class_objectives(y_rows, rows, current, sigma2)
        # Coefficients become estimates in place, one product per class over
        # all of its signals.
        for gi, comp in enumerate(current.components):
            idx = np.flatnonzero(labels == gi)
            if idx.size:
                estimates[idx] = comp.mean + estimates[idx] @ comp.basis.T
        current = m_step_update(estimates, labels + 1, current)
    return current


@dataclass(frozen=True)
class ShtOutcome:
    """Result of a sequential acquisition for class detection.

    decided_class is None when the posterior-ratio threshold never fired
    inside the budget; fallback_class then holds the measurement-space
    classification of everything acquired. final_class merges the two.
    trace logs (block index, priors, pairwise log posterior ratios) per
    acquired block. state is the final acquisition history: its
    n_measurements is the number of measurements used and its class_priors
    the final Bayes-updated priors.
    """

    decided_class: int | None
    trace: tuple
    state: AcquisitionState
    fallback_class: int | None = None

    @property
    def final_class(self) -> int:
        return self.decided_class if self.decided_class is not None else self.fallback_class


def _pairwise_log_ratios(loglik: np.ndarray, log_priors: np.ndarray) -> np.ndarray:
    """log L[i, j]: joint log-likelihood ratio plus initial log-prior ratio.

    Zero-prior classes carry a score of -inf; their rows come out -inf/nan
    and can never clear the decision threshold.
    """
    score = loglik + log_priors
    with np.errstate(invalid="ignore"):
        return score[:, None] - score[None, :]


def sht_run(
    signal_oracle,
    model: GmmModel,
    b: int,
    m_budget: int,
    p_e: float,
    sigma2: float = 0.0,
    seed=0,
    first_block: np.ndarray | None = None,
    opts: AscentOptions | None = None,
) -> ShtOutcome:
    """Sequentially acquire blocks until one class dominates all others.

    The stopping threshold is eta = (1 - p_e) / p_e on the pairwise
    posterior ratios, evaluated in the log domain with the exact joint
    log-likelihood of all measurements so far plus the initial log-prior
    difference. The first block is the non-adaptive separability design
    (precomputable and passable via first_block, which must then have
    shape (b, N); run_two_step passes the one protocol._step1_rows keeps
    on the model); it initializes the acquisition and is never tested on
    its own, so the earliest decision uses two blocks. Each later block
    re-optimizes the separability against the history so far. If the
    budget is exhausted undecided, the outcome falls back to
    measurement-space classification.

    signal_oracle maps a block of rows to its (noisy) measurements.
    """
    if not 0.0 < p_e < 0.5:
        raise ValueError(f"p_e must lie in (0, 0.5), got {p_e}")
    if b < 1 or b > m_budget:
        raise ValueError(f"need 1 <= b <= budget, got b={b}, budget={m_budget}")
    if first_block is not None:
        first_block = np.asarray(first_block, dtype=float)
        if first_block.shape != (b, model.dimension):
            raise ValueError(
                f"first_block must have shape ({b}, {model.dimension}), "
                f"got {first_block.shape}"
            )
    log_eta = float(np.log((1.0 - p_e) / p_e))
    with np.errstate(divide="ignore"):  # zero-prior classes can never win
        log_priors = np.log(model.priors)
    seed_key = tuple(np.atleast_1d(np.asarray(seed, dtype=np.int64)).tolist())
    state = AcquisitionState.initial(model, sigma2, block_size=b)
    trace = []
    decided = None
    k = 0
    while state.n_measurements + b <= m_budget and decided is None:
        k += 1
        if k == 1 and first_block is not None:
            block = first_block
        else:
            block = design_classification_block(
                state, model, b, seed=seed_key + (k,), opts=opts
            )
        y = np.asarray(signal_oracle(block), dtype=float).ravel()
        state = state.append_block(block, y, model)
        ratios = _pairwise_log_ratios(state.class_log_likelihoods, log_priors)
        trace.append(
            {
                "block": k,
                "priors": state.class_priors.copy(),
                "log_ratios": ratios,
            }
        )
        if k >= 2:
            margins = ratios + np.diag(np.full(model.n_components, np.inf))
            winners = np.flatnonzero(margins.min(axis=1) > log_eta)
            if winners.size:
                decided = int(winners[0]) + 1
    fallback = None
    if decided is None and state.n_measurements >= 1:
        fallback = map_classify(state, model)
    return ShtOutcome(
        decided_class=decided,
        trace=tuple(trace),
        state=state,
        fallback_class=fallback,
    )
