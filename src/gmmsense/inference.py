"""Reconstruction, classification, model learning, and sequential testing.

Reconstruction solves the per-class ridge problem
    min_a ||y - R V_g a||^2 + sigma2 * a^T diag(1/lambda_g) a
in closed form (a Wiener filter in the coefficient domain), selects the
class with the smallest objective, and maps back to signal space. One
eigendecomposition of each class's inner matrix R Sigma_g R^T + sigma2 I
serves both the coefficients and the minimum of the objective, which is
the Gaussian quadratic form sigma2 * y_c^T (R Sigma_g R^T + sigma2 I)^-1 y_c
(y_c the class-centered measurements), so no reconstruction or residual is
formed to score a class. A batch is scored against every class first, one
matrix product per class and chunk of signals; the coefficients are then
solved once per signal, for its winning class only. At sigma2 = 0 the
minimum is the residual alone: 0 for every class whose projected
covariance is full rank, so such exact fits tie and the lowest index
among them wins.
Classification from raw measurements uses the Gaussian measurement-space
criterion (quadratic form plus log-determinant, no prior term). Sequential
hypothesis testing stops once the most likely class beats the runner-up by
a ratio derived from the target error rate; each run logs one DEBUG record.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linalg import floor_eigenvalues, symmetrize
from .adaptive import AcquisitionState, AscentOptions, _check_classes, design_classification_block
from .design import as_rows
from .model import (
    GaussianComponent,
    GmmModel,
    _check_sigma2,
    _require_finite,
    m_step_update,
)

__all__ = [
    "ShtOutcome",
    "wiener_coefficients",
    "map_reconstruct",
    "map_classify",
    "map_em",
    "sht_run",
]

_LOG = logging.getLogger("gmmsense")


class ReconstructionResult(NamedTuple):
    """Model-selected reconstruction of one signal; see map_reconstruct."""

    selected_class: int
    coefficients: np.ndarray
    signal_estimate: np.ndarray
    objective_values: np.ndarray


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
    return _wiener_coefficients(y, as_rows(sensing), component, sigma2)


def _wiener_coefficients(
    y, rows: np.ndarray, component: GaussianComponent, sigma2: float, solver=None
) -> np.ndarray:
    """wiener_coefficients on rows, its checks run on every call.

    solver is _wiener_solver's (U, C) for these rows, component and sigma2,
    where the caller keeps one; None makes it here.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim not in (1, 2) or y.shape[-1] != rows.shape[0]:
        raise ValueError("measurement length does not match the sensing rows")
    if rows.shape[1] != component.dimension:
        raise ValueError("sensing width does not match the component dimension")
    _check_sigma2(sigma2)
    _require_finite(np.atleast_2d(y), "measurements")
    if solver is None:
        solver = _wiener_solver(rows, component, sigma2)[:2]
    vecs, coef_map = solver
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


# Signals per E-step chunk, and per block of one class's estimates in
# map_em. Neither holds a single signal when there are more: a one-row
# matmul takes numpy's matrix-vector path, which rounds differently from the
# same row inside a larger product.
_CHUNK = 2048


def _chunks(n_sig: int):
    """(start, stop) bounds of E-step chunks or blocks; a 1-signal tail joins the last."""
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
    (_wiener_solver). Every class is scored first: per chunk of _CHUNK
    signals a class costs one matrix product, z = (y - R mu) U, and its
    objectives are the closed-form quadratic form (z * z) omega, with no
    reconstruction or residual formed. The running winner's z rows are
    kept in the first m columns of the coefficient array. Then each class
    solves once, z C over all the signals it won: G products per chunk
    plus one solve per signal. At sigma2 = 0 every class whose projected
    covariance is full rank scores exactly 0, so the lowest such index
    wins. A one-row product takes numpy's matrix-vector path, so a chunk
    or a solve holds one signal only when the whole batch, or all of a
    class's winners, is that one signal. BLAS can still round a row
    differently with a product's row count: the coefficients may move in
    the last bits with _CHUNK (1e-13 relative seen), while the objectives
    and labels have stayed bitwise. Working memory is O(_CHUNK * N + G * S)
    while scoring and one class's winners (at most S x N) while solving,
    on top of the (S, M) input and the (S, N) output; no (G, S, N) array
    is formed.
    """
    n_sig, m = y_rows.shape
    objectives = np.empty((model.n_components, n_sig))
    labels = np.zeros(n_sig, dtype=np.intp)
    # Wide enough for the winners' z: raw rows may number m > N.
    coefficients = np.empty((n_sig, max(model.dimension, m)))
    classes = [
        (rows @ comp.mean, *_wiener_solver(rows, comp, sigma2))
        for comp in model.components
    ]
    for start, stop in _chunks(n_sig):
        for gi, (projected_mean, vecs, _, weights) in enumerate(classes):
            z = (y_rows[start:stop] - projected_mean) @ vecs  # (chunk, m)
            # Not (z * z) @ weights: a matrix-vector product can round a
            # row differently with the chunk's row count.
            obj = np.einsum("sm,sm,m->s", z, z, weights)
            objectives[gi, start:stop] = obj
            if gi == 0:
                best = obj
                coefficients[start:stop, :m] = z
                continue
            wins = obj < best  # strict: ties stay with the lower index
            best[wins] = obj[wins]
            labels[start:stop][wins] = gi
            coefficients[start:stop, :m][wins] = z[wins]
    for gi, (_, _, coef_map, _) in enumerate(classes):
        idx = np.flatnonzero(labels == gi)
        if idx.size:
            coefficients[idx, : model.dimension] = coefficients[idx, :m] @ coef_map
    return objectives, labels, coefficients[:, : model.dimension]


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
    The record holds objective_values (G,), one objective per class;
    selected_class, the 1-based lowest-index argmin of them; coefficients
    (N,), that class's ridge coefficients a; and signal_estimate (N,),
    its mean + basis @ a. Raises ValueError for non-finite measurements
    and for a sigma2 that is not finite or is negative.
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
    _check_classes(state, model)
    return int(state.class_log_likelihoods.argmax()) + 1


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

    The E-step factorizes each class's inner matrix once per iteration,
    scores every signal against every class by the closed-form quadratic
    form of that factorization (G matrix products per chunk of signals),
    and then solves once per signal for the winning class's coefficients
    (see _class_objectives). At sigma2 = 0 every class whose
    projected covariance is full rank fits each signal exactly (objective
    0), so the lowest such index takes the signal: zero-noise learning
    separates classes only through rank-deficient projections. Working
    memory is that of _class_objectives: the (S, M) measurements, one
    (S, N) array of coefficients, turned into the estimates in place in
    row blocks of at most _CHUNK, and transients of at most one class's
    signals. A pass's estimates are freed before the next E-step allocates
    its own, so one (S, N) array is alive at a time; no (G, S, N) array is
    formed. The chunk size can move the estimates,
    and so the refitted moments, in the last bits (see _class_objectives).
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
        # Coefficients become estimates in place, in the E-step's row blocks.
        for gi, comp in enumerate(current.components):
            idx = np.flatnonzero(labels == gi)
            for start, stop in _chunks(idx.size):
                block = idx[start:stop]
                estimates[block] = comp.mean + estimates[block] @ comp.basis.T
        current = m_step_update(estimates, labels + 1, current)
        del estimates  # the next E-step allocates its own
    return current


@dataclass(frozen=True)
class ShtOutcome:
    """Result of a sequential acquisition for class detection.

    final_class is the 1-based detected class: the leading class when the
    posterior-ratio threshold fired inside the budget (decided), else the
    measurement-space classification of everything acquired. state is the
    final acquisition history: its n_measurements is the number of
    measurements used, and its class_log_likelihoods with the model priors
    give the final class posterior.
    """

    final_class: int
    decided: bool
    state: AcquisitionState

    @property
    def decided_class(self) -> int | None:
        """final_class if the test decided, else None (read by perfbench's tracer)."""
        return self.final_class if self.decided else None


def _leading_class(scores: np.ndarray, log_eta: float) -> tuple[int | None, float]:
    """(0-based argmax, or None unless its margin over the runner-up exceeds log_eta; margin)."""
    best = int(np.argmax(scores))
    margin = float(scores[best] - np.max(np.delete(scores, best), initial=-np.inf))
    return (best if margin > log_eta else None), margin


def sht_run(
    signal_oracle,
    model: GmmModel,
    b: int,
    m_budget: int,
    p_e: float,
    sigma2: float = 0.0,
    seed=0,
    opts: AscentOptions | None = None,
) -> ShtOutcome:
    """Sequentially acquire blocks until one class dominates all others.

    A class scores its exact joint log-likelihood of all measurements so
    far plus its initial log prior (-inf for a zero prior). The test stops
    once the best score beats the runner-up's by more than log eta, eta =
    (1 - p_e) / p_e, so every posterior ratio of the best class exceeds
    eta; tied leaders never stop it, and a lone class always does. Rounding
    is monotone, so this is bitwise the test over all pairs.
    Block k, of b rows, is designed against the history so far by
    design_classification_block with the seed (*seed, k); block 1, on the
    empty history, is the non-adaptive ida design. The test runs after
    every block, the first included; if the budget is exhausted undecided,
    the outcome falls back to measurement-space classification.

    signal_oracle maps a block of rows to its (noisy) measurements. With
    the "gmmsense" logger enabled at DEBUG, each call logs one record: b,
    the blocks and measurements acquired, stop=decided or stop=budget, the
    final class and the last block's margin.
    """
    if not 0.0 < p_e < 0.5:
        raise ValueError(f"p_e must lie in (0, 0.5), got {p_e}")
    if b < 1 or b > m_budget:
        raise ValueError(f"need 1 <= b <= budget, got b={b}, budget={m_budget}")
    log_eta = float(np.log((1.0 - p_e) / p_e))
    with np.errstate(divide="ignore"):  # zero-prior classes can never win
        log_priors = np.log(model.priors)
    # Python ints, not int64: protocol seeds may reach 2**63 and above.
    seed_key = tuple(int(s) for s in np.atleast_1d(np.array(seed, dtype=object)))
    state = AcquisitionState.initial(model, sigma2, block_size=b)
    leader = None
    while state.n_measurements + b <= m_budget and leader is None:
        k = state.n_measurements // b + 1
        block = design_classification_block(state, model, b, seed=seed_key + (k,), opts=opts)
        y = np.asarray(signal_oracle(block), dtype=float).ravel()
        state = state.append_block(block, y, model)
        leader, margin = _leading_class(state.class_log_likelihoods + log_priors, log_eta)
    outcome = ShtOutcome(
        final_class=map_classify(state, model) if leader is None else leader + 1,
        decided=leader is not None,
        state=state,
    )
    if _LOG.isEnabledFor(logging.DEBUG):
        _LOG.debug(
            "sht_run b=%d blocks=%d measurements=%d stop=%s class=%d margin=%.6g",
            b, k, state.n_measurements, "decided" if outcome.decided else "budget",
            outcome.final_class, margin,
        )
    return outcome
