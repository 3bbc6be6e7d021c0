"""Reconstruction, classification, model learning, and sequential testing.

Reconstruction solves the per-class ridge problem
    min_a ||y - R V_g a||^2 + sigma2 * a^T diag(1/lambda_g) a
in closed form (a Wiener filter in the coefficient domain), selects the
class with the smallest objective, and maps back to signal space.
Classification from raw measurements uses the Gaussian measurement-space
criterion (quadratic form plus log-determinant, no prior term). Sequential
hypothesis testing stops acquiring once some class beats every other by a
posterior-ratio threshold derived from the target error rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import EIG_FLOOR_REL, sym_floored_eigh
from .adaptive import AcquisitionState, AscentOptions, design_classification_block
from .design import as_rows
from .model import GaussianComponent, GmmModel, _readonly, m_step_update

__all__ = [
    "ReconstructionResult",
    "ShtOutcome",
    "wiener_coefficients",
    "map_reconstruct",
    "map_classify",
    "map_em",
    "map_em_objective",
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
    coefficients come back as (N,) or (S, N), from one factorization of
    the inner matrix. The measurements must already be centered by the
    component's projected mean. With sigma2 = 0 the inner inverse relies
    on eigenvalue flooring.
    """
    rows = as_rows(sensing)
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != rows.shape[0]:
        raise ValueError("measurement length does not match the sensing rows")
    if rows.shape[1] != component.dimension:
        raise ValueError("sensing width does not match the component dimension")
    m = rows.shape[0]
    inner = rows @ component.covariance @ rows.T + sigma2 * np.eye(m)
    vals, vecs = sym_floored_eigh(inner)
    t = ((y @ vecs) / vals) @ vecs.T  # inner^-1 applied to each measurement
    return ((t @ rows) @ component.basis) * component.eigenvalues


def _class_objectives(
    y_rows: np.ndarray, rows: np.ndarray, model: GmmModel, sigma2: float
):
    """Vectorized per-class objectives for a batch of measurement rows.

    y_rows has one measurement vector per row, all sensed with the same
    rows. Returns (objectives (G, S), coefficients (G, S, N)).
    """
    n_sig = y_rows.shape[0]
    g = model.n_components
    n = model.dimension
    objectives = np.empty((g, n_sig))
    coefficients = np.empty((g, n_sig, n))
    for gi, comp in enumerate(model.components):
        centered = y_rows - rows @ comp.mean  # (S, m)
        alpha = wiener_coefficients(centered, rows, comp, sigma2)  # (S, N)
        resid = centered - (alpha @ comp.basis.T) @ rows.T
        obj = np.einsum("sm,sm->s", resid, resid)
        lam_max = float(comp.eigenvalues.max(initial=0.0))
        if sigma2 > 0.0 and lam_max > 0.0:
            # alpha is zero along zero-eigenvalue directions, so the floored
            # penalty matches the exact limit.
            lam = np.maximum(comp.eigenvalues, EIG_FLOOR_REL * lam_max)
            obj = obj + sigma2 * np.sum(alpha**2 / lam, axis=1)
        objectives[gi] = obj
        coefficients[gi] = alpha
    return objectives, coefficients


def map_reconstruct(
    y: np.ndarray, sensing, model: GmmModel, sigma2: float
) -> ReconstructionResult:
    """Reconstruct one signal with per-class ridge solves + model selection.

    Evaluates the objective ||y_c - R V_g a||^2 + sigma2 a^T diag(1/l) a at
    the closed-form minimizer for every class (y_c centered per class),
    picks the smallest, and returns the signal estimate mean + V a. At
    sigma2 = 0 the objective is the residual alone.
    """
    rows = as_rows(sensing)
    y = np.asarray(y, dtype=float).ravel()
    objectives, coefficients = _class_objectives(y[None, :], rows, model, sigma2)
    g_star = int(np.argmin(objectives[:, 0]))
    comp = model.components[g_star]
    alpha = coefficients[g_star, 0]
    estimate = comp.mean + comp.basis @ alpha
    return ReconstructionResult(
        selected_class=g_star + 1,
        coefficients=alpha,
        signal_estimate=estimate,
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


def map_em_objective(
    measurements: np.ndarray, sensing, model: GmmModel, sigma2: float
) -> float:
    """Total best-class objective over a measurement batch (diagnostic)."""
    rows = as_rows(sensing)
    y_rows = np.asarray(measurements, dtype=float)
    objectives, _ = _class_objectives(y_rows, rows, model, sigma2)
    return float(objectives.min(axis=0).sum())


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
    """
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    rows = as_rows(sensing)
    y_rows = np.asarray(measurements, dtype=float)
    if y_rows.ndim != 2 or y_rows.shape[1] != rows.shape[0]:
        raise ValueError("measurements must be (S, M) matching the sensing rows")
    current = model
    for _ in range(kappa):
        objectives, coefficients = _class_objectives(y_rows, rows, current, sigma2)
        labels = np.argmin(objectives, axis=0)
        estimates = np.empty((y_rows.shape[0], current.dimension))
        for gi, comp in enumerate(current.components):
            idx = np.flatnonzero(labels == gi)
            if idx.size:
                estimates[idx] = comp.mean + coefficients[gi, idx] @ comp.basis.T
        current = m_step_update(estimates, labels + 1, current)
    return current


@dataclass(frozen=True)
class ShtOutcome:
    """Result of a sequential acquisition for class detection.

    decided_class is None when the posterior-ratio threshold never fired
    inside the budget; fallback_class then holds the measurement-space
    classification of everything acquired. final_class merges the two.
    trace logs (block index, priors, pairwise log posterior ratios) per
    acquired block.
    """

    decided_class: int | None
    measurements_used: int
    final_priors: np.ndarray
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
    (precomputable and passable via first_block); it initializes the
    acquisition and is never tested on its own, so the earliest decision
    uses two blocks. Each later block re-optimizes the separability against
    the history so far. If the budget is exhausted undecided, the outcome
    falls back to measurement-space classification.

    signal_oracle maps a block of rows to its (noisy) measurements.
    """
    if not 0.0 < p_e < 0.5:
        raise ValueError(f"p_e must lie in (0, 0.5), got {p_e}")
    if b < 1 or b > m_budget:
        raise ValueError(f"need 1 <= b <= budget, got b={b}, budget={m_budget}")
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
            block = np.asarray(first_block, dtype=float)
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
        measurements_used=state.n_measurements,
        final_priors=state.class_priors,
        trace=tuple(trace),
        state=state,
        fallback_class=fallback,
    )
