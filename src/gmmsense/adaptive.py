"""Information-driven sensing-row design.

Two objectives drive everything here. For class detection, new rows
maximize a separability measure: half the gap between the log-volume of the
projected mixture covariance and the prior-weighted log-volumes of the
projected class covariances. The measure upper-bounds the mutual
information between the new measurements and the class label given the
measurement history. A block starts from the spectral start: the
generalized eigenvectors of the mixture posterior and the posterior of the
most likely class, scored as single rows in one pass. For two classes and an
empty history these are the generalized eigenvectors of the two class
covariances (plus noise), scored by their share of the measure, so the
spectral start is the closed-form optimum and is returned as it is.
Otherwise a single row, which has a cheap closed-form Hessian, is
polished by Riemannian Newton on the unit sphere. One kernel, _project,
projects the posterior stack onto every block, Newton's rows included: for
one row x it takes one product of the stack with x and no eigh, and its
rows P_k x give the projections, the score and both gradients; the Newton
matrix takes one more product with the stack. A block of several rows
takes steepest ascent with re-orthonormalization, whose line searches
start from Barzilai-Borwein step lengths. For reconstruction with a known
class, the optimal block is closed form: the top eigenvectors of that
class's posterior covariance given the history.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._linalg import (
    EIG_FLOOR_REL,
    SingularMatrixError,
    eigh_descending,
    orthonormalize_rows,
    sym_floored_eigh,
    symmetrize,
)
from .design import as_rows, random_orthonormal, require_orthonormal_rows
from .model import GmmModel, _check_sigma2, _freeze, _readonly, _require_finite

__all__ = [
    "AcquisitionState",
    "ProjectedCovarianceError",
    "AscentOptions",
    "measurement_log_likelihoods",
    "posterior_matrices",
    "separability_measure",
    "design_classification_block",
    "design_reconstruction_block",
]

_LOG_2PI = float(np.log(2.0 * np.pi))


class ProjectedCovarianceError(ValueError):
    """A projected covariance was not positive definite.

    class_index is the 1-based offending class, or None when the mixture
    average matrix failed.
    """

    def __init__(self, class_index: int | None):
        self.class_index = class_index
        which = "average" if class_index is None else f"class {class_index}"
        super().__init__(f"projected covariance for {which} is not positive definite")


@dataclass(frozen=True)
class AcquisitionState:
    """Measurement history of one signal plus its class log-likelihoods.

    rows stacks the acquired measurement blocks (possibly empty); each block
    had orthonormal rows when appended, but different blocks need not be
    mutually orthogonal. class_log_likelihoods holds the joint Gaussian
    log-likelihood of all measurements so far under each class (zeros for
    an empty history); _class_weights derives the class weights from them.
    sigma2 must be finite and >= 0, the measurements and log-likelihoods
    finite (ValueError). One check, _check_states, holds these invariants,
    vectorized over stacked records: a state checks itself as a batch of
    one, and _batch_states checks a whole batch's states once.

    The arrays are kept read-only and shared when frozen (model._readonly
    states when): the states of one batch hold the same rows object and
    views of the batch's frozen measurements and log-likelihoods, and
    append_block freezes the history it stacks. Re-enabling writes on an
    array a state holds breaks that state, as it would the rows a model
    keeps for its seed-free designs.
    """

    rows: np.ndarray
    measurements: np.ndarray
    sigma2: float
    block_size: int
    class_log_likelihoods: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _readonly(self.rows))
        object.__setattr__(self, "measurements", _readonly(self.measurements))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(
            self, "class_log_likelihoods", _readonly(self.class_log_likelihoods)
        )
        _check_states(self.rows, self.measurements[None], self.sigma2, self.block_size,
                      self.class_log_likelihoods[None])

    @classmethod
    def initial(
        cls, model: GmmModel, sigma2: float, block_size: int = 1
    ) -> "AcquisitionState":
        """Empty history: no rows, zero log-likelihoods."""
        n = model.dimension
        return cls(
            rows=np.empty((0, n)),
            measurements=np.empty(0),
            sigma2=sigma2,
            block_size=block_size,
            class_log_likelihoods=np.zeros(model.n_components),
        )

    @property
    def n_measurements(self) -> int:
        return self.rows.shape[0]

    def append_block(self, block, measurements, model: GmmModel) -> "AcquisitionState":
        """Return a new state with one more measured block.

        The incoming block must have orthonormal rows; the joint class
        log-likelihoods are recomputed exactly on the stacked history. The
        new state's arrays are built here and frozen, so it shares them
        without a copy.
        """
        rows = as_rows(block)
        y = np.asarray(measurements, dtype=float).ravel()
        if rows.shape[1] != self.rows.shape[1]:
            raise ValueError("block dimension does not match the state")
        if y.shape[0] != rows.shape[0]:
            raise ValueError("measurement count does not match the block rows")
        require_orthonormal_rows(rows, "block")
        all_rows = np.vstack([self.rows, rows])
        all_y = np.concatenate([self.measurements, y])
        loglik = measurement_log_likelihoods(all_rows, all_y, model, self.sigma2)
        _freeze(all_rows, all_y, loglik)
        return AcquisitionState(
            rows=all_rows,
            measurements=all_y,
            sigma2=self.sigma2,
            block_size=self.block_size,
            class_log_likelihoods=loglik,
        )


def _check_states(rows, measurements, sigma2, block_size, log_likelihoods) -> None:
    """ValueError unless stacked records satisfy AcquisitionState's invariants.

    The S records share rows (m, N), sigma2 and block_size; row i of
    measurements (S, m) and log_likelihoods (S, G) is record i's. Each
    message is the one that record alone raises, and a non-finite
    measurement or log-likelihood names the first bad signal.
    """
    if rows.ndim != 2:
        raise ValueError("rows must be a 2-D array")
    s = measurements.shape[0]
    if measurements.shape != (s, rows.shape[0]):
        raise ValueError("measurements length must match the row count")
    _require_finite(measurements, "measurements")
    _check_sigma2(sigma2)
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if log_likelihoods.shape[:1] != (s,):
        raise ValueError(
            f"{s} signals of measurements, but class log-likelihoods of shape "
            f"{log_likelihoods.shape}"
        )
    _require_finite(log_likelihoods, "class log-likelihoods")
    if rows.shape[0] == 0 and log_likelihoods.any():
        raise ValueError("class log-likelihoods of an empty history must be 0")


def _batch_states(rows, measurements, sigma2, block_size, log_likelihoods):
    """One AcquisitionState per signal of a batch sensed with the same rows.

    The arguments are _check_states': row i of measurements (S, m) and
    log_likelihoods (S, G) is signal i's. Each array goes through
    model._readonly once, so a frozen one is shared and anything else
    copied, and the batch is checked once, by the check a lone state runs.
    The S states are then made without running __post_init__ each: they
    hold the one rows object and row views of the batch arrays, and equal
    the states the constructor builds from those rows.
    """
    rows, measurements, log_likelihoods = map(_readonly, (rows, measurements, log_likelihoods))
    sigma2 = float(sigma2)
    _check_states(rows, measurements, sigma2, block_size, log_likelihoods)
    states = []
    for y, loglik in zip(measurements, log_likelihoods):
        state = object.__new__(AcquisitionState)
        state.__dict__.update(rows=rows, measurements=y, sigma2=sigma2, block_size=block_size,
                              class_log_likelihoods=loglik)
        states.append(state)
    return states


def _check_classes(state: AcquisitionState, model: GmmModel) -> None:
    """ValueError unless the state holds one log-likelihood per model class."""
    if state.class_log_likelihoods.shape != (model.n_components,):
        raise ValueError("state likelihoods do not match the model's classes")


def _class_weights(state: AcquisitionState, model: GmmModel) -> np.ndarray:
    """p(C | history): model.priors itself for an empty history, which
    _bayes_posteriors of zero log-likelihoods may miss by an ulp."""
    _check_classes(state, model)
    if state.n_measurements == 0:
        return model.priors
    return _bayes_posteriors(state.class_log_likelihoods, model.priors)


def _bayes_posteriors(log_likelihoods: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Bayes-updated class probabilities from class log-likelihoods.

    log_likelihoods has shape (..., G), one row per history; priors has
    shape (G,). Each row is normalized in the log domain, so very negative
    log-likelihoods do not underflow to an all-zero row. Zero priors stay at
    zero posterior.
    """
    with np.errstate(divide="ignore"):
        log_post = log_likelihoods + np.log(priors)
    log_post = log_post - log_post.max(axis=-1, keepdims=True)
    post = np.exp(log_post)
    return post / post.sum(axis=-1, keepdims=True)


def measurement_log_likelihoods(
    rows: np.ndarray, y: np.ndarray, model: GmmModel, sigma2: float
) -> np.ndarray:
    """Joint Gaussian log p(y | g) of stacked measurements for every class.

    For each class g the measurement covariance is rows @ cov_g @ rows.T +
    sigma2 I and the quadratic form uses the class-mean-centered
    measurements. Eigenvalues are floored before inverting, which keeps the
    sigma2 = 0 case finite once measurements span a component's support.
    y is one measurement vector of shape (m,) or a batch of shape (S, m)
    sensed with the same rows; the log-likelihoods come back as (G,) or
    (S, G), from one factorization of the G class covariances. Raises
    ValueError for a non-finite measurement (naming the first bad signal)
    and for a sigma2 that is not finite or is negative.
    """
    rows = np.asarray(rows, dtype=float)
    y = np.asarray(y, dtype=float)
    m = rows.shape[0]
    if y.ndim not in (1, 2) or y.shape[-1] != m:
        raise ValueError("measurement length does not match the rows")
    _check_sigma2(sigma2)
    _require_finite(np.atleast_2d(y), "measurements")
    cov = rows @ model.covariance_stack @ rows.T + sigma2 * np.eye(m)
    vals, vecs = sym_floored_eigh(cov)
    centered = y[..., None, :] - model.mean_stack @ rows.T  # (..., G, m)
    proj = np.einsum("...gi,gij->...gj", centered, vecs)
    quad = np.sum(proj**2 / vals, axis=-1)
    logdet = np.sum(np.log(vals), axis=-1)
    return -0.5 * (quad + logdet + m * _LOG_2PI)


class PosteriorMatrices(NamedTuple):
    """Class and mixture covariances conditioned on the measurement history.

    stack holds G + 1 symmetric N x N matrices: the G class posteriors
    first, then the posterior of the prior-weighted mixture covariance.
    All are positive definite once sigma2 > 0.

    scales carries the largest diagonal entry of each unconditioned
    covariance (plus sigma2), in the same order. Projected eigenvalues are
    floored at EIG_FLOOR_REL times the matching scale, which keeps the
    separability measure finite for classes whose posterior has collapsed
    (history spans their support at zero noise). weights are the class
    weights of the average (_class_weights). Built by posterior_matrices only.
    """

    stack: np.ndarray
    scales: np.ndarray
    weights: np.ndarray


def _reject_first(bad: np.ndarray) -> None:
    """Raise for the first flagged matrix of a stack; the last is the average."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ProjectedCovarianceError(None if i == bad.shape[0] - 1 else i + 1)


def _condition_in_place(covs: np.ndarray, rows: np.ndarray, sigma2: float) -> np.ndarray:
    """cov - cov R^T (R cov R^T + sigma2 I)^-1 R cov + sigma2 I, symmetrized.

    Works on a stack of covariances, which it overwrites; the symmetrized
    result comes back in a second array. The inner inverse uses eigenvalue
    flooring. With empty history this is just cov + sigma2 I. The
    operations and their order are those of the out-of-place expression, so
    the result is bitwise the same, except that sigma2 is added to the
    diagonal alone: an off-diagonal -0.0 stays -0.0 instead of becoming +0.0.
    """
    if rows.shape[0]:
        a = covs @ rows.T                        # (..., N, m)
        inner = np.swapaxes(a, -1, -2) @ rows.T  # R cov R^T, shape (..., m, m)
        inner = inner + sigma2 * np.eye(rows.shape[0])
        vals, vecs = sym_floored_eigh(inner)
        inv = (vecs / vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
        out = a @ inv @ np.swapaxes(a, -1, -2)
        np.subtract(covs, out, out=covs)
    else:
        out = np.empty_like(covs)
    diagonals = np.einsum("...ii->...i", covs)  # a writable view
    diagonals += sigma2
    np.add(covs, np.swapaxes(covs, -1, -2), out=out)
    out *= 0.5
    return out


def posterior_matrices(state: AcquisitionState, model: GmmModel) -> PosteriorMatrices:
    """Posterior (innovation) covariances given the measurement history.

    Stacks the class covariances and their mixture average under the
    history's class weights (_class_weights, so during a sequential
    acquisition the average tracks the Bayes-updated posterior) and
    conditions all G + 1 on the history at once. The stack is built once:
    the G + 1 covariances are written into one array, conditioned there and
    symmetrized into a second one. Returns a PosteriorMatrices whose
    arrays (see there) are read-only; a state without one log-likelihood
    per model class is a ValueError. Determinant floors are anchored at
    the unconditioned covariance scales. A matrix with zero scale has no
    variance at all and an undefined log-determinant, so it is rejected
    with ProjectedCovarianceError naming the first such class (None for
    the mixture).
    """
    if state.rows.shape[1:] and state.rows.shape[1] != model.dimension:
        raise ValueError("state dimension does not match the model")
    weights = _class_weights(state, model)
    cov_stack = model.covariance_stack
    g = cov_stack.shape[0]
    covs = np.empty((g + 1,) + cov_stack.shape[1:])
    covs[:g] = cov_stack
    np.einsum("g,gij->ij", weights, cov_stack, out=covs[g])
    scales = np.diagonal(covs, axis1=-2, axis2=-1).max(axis=-1) + state.sigma2
    try:
        stack = _condition_in_place(covs, state.rows, state.sigma2)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"singular measurement covariance in a posterior: {exc}"
        ) from exc
    _reject_first(scales <= 0.0)
    _freeze(stack, scales, weights)
    return PosteriorMatrices(stack, scales, weights)


# Most negative projected value accepted as numerical noise, relative to the
# unconditioned covariance scale. Conditioning on history amplifies rounding
# by up to eps / EIG_FLOOR_REL ~ 1e-6, well below this and well above any
# genuinely indefinite input.
_PROJ_NEG_TOL = 1e-3


def _project(
    block: np.ndarray, posteriors: PosteriorMatrices
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Project every posterior onto a block and eigendecompose the result.

    Returns (B P, floored eigenvalues ascending, eigenvectors, above-floor
    mask), each stacked like posteriors.stack. Eigenvalues are floored at
    EIG_FLOOR_REL times the matching scale, so a collapsed class posterior
    contributes a large finite log-determinant instead of an infinity.
    Values more negative than rounding noise allows raise
    ProjectedCovarianceError naming the offending class.

    A single row x (b = 1) takes no eigh: its 1 x 1 projections x^T P_k x
    are the eigenvalues and its eigenvectors are all 1. Both products,
    P_k x and x^T (P_k x), run matrix by matrix, so bitwise equal matrices
    (identical classes, or a decided class and the mixture) give bitwise
    equal projections; one product over the stack reshaped to (G+1) N rows
    does not, since BLAS groups its rows differently from block to block.
    """
    scales = posteriors.scales
    if block.shape[0] == 1:
        bp = (posteriors.stack @ block[0])[:, None, :]  # (G+1, 1, N)
        vals = bp @ block[0]                             # (G+1, 1)
        vecs = np.ones_like(vals)[..., None]
    else:
        bp = block @ posteriors.stack                    # (G+1, b, N)
        vals, vecs = np.linalg.eigh(symmetrize(bp @ block.T))
    _reject_first(vals[:, 0] < -_PROJ_NEG_TOL * scales)
    floors = EIG_FLOOR_REL * scales[:, None]
    live = vals > floors
    return bp, np.maximum(vals, floors), vecs, live


def _score(projection, weights: np.ndarray) -> float:
    """Separability measure of a block from its _project result."""
    logdets = np.log(projection[1]).sum(axis=-1)
    return 0.5 * float((weights * (logdets[-1] - logdets[:-1])).sum())


def _gradient(projection, weights: np.ndarray) -> np.ndarray:
    """Separability gradient of a block from its _project result.

    Returns (B Pavg B^T)^-1 B Pavg - sum_g w_g (B P_g B^T)^-1 B P_g, the
    exact gradient of _score: differentiating each log-determinant gives a
    factor of two that cancels the one-half in the measure. Each inverse
    keeps only the eigenvalues above the floor: a floored eigenvalue is
    locally constant, so it gets zero weight at every block size.
    """
    bp, vals, vecs, live = projection
    inv = (vecs * (live / vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    terms = inv @ bp
    return terms[-1] - np.einsum("g,gbn->bn", weights, terms[:-1])


def separability_measure(block, state: AcquisitionState, model: GmmModel) -> float:
    """Class-separability score of a candidate measurement block.

    Half the prior-weighted sum over classes of (logdet of the projected
    mixture posterior - logdet of the projected class posterior). The
    additive constant carried by the measurement history is dropped. With
    empty history this is the non-adaptive form on the raw covariances.
    Zero when all class covariances coincide.
    """
    rows = as_rows(block)
    require_orthonormal_rows(rows, "candidate")
    posteriors = posterior_matrices(state, model)
    return _score(_project(rows, posteriors), posteriors.weights)


# Steepest-ascent constants of the block design: the first trial step,
# halved up to _MAX_BACKTRACKS times while a trial does not improve the
# score, and the relative improvement below which the ascent stops.
_STEP0 = 0.1
_MAX_BACKTRACKS = 40
_TOL = 1e-6

# Single-row blocks: Riemannian Newton stops where the gain its step
# predicts, relative to max(1, |score|), is at most _PLATEAU: there the
# score's rounding (a few ulps of the summed log-determinants) hides it.
_PLATEAU = 1e-12

_LOG = logging.getLogger("gmmsense")


@dataclass(frozen=True)
class AscentOptions:
    """Options of the block design.

    max_iters caps the accepted steps of the search that follows the
    starting block: Riemannian Newton for a single-row block (b = 1),
    steepest ascent with Barzilai-Borwein steps for b > 1. 0 returns the
    starting block itself: the spectral start or, where no pencil factor
    exists, the seeded random block. The two-class closed form takes no
    steps whatever max_iters is.
    """

    max_iters: int = 200

    def __post_init__(self):
        if not _is_int(self.max_iters) or self.max_iters < 0:
            raise ValueError(f"max_iters must be an integer >= 0, got {self.max_iters!r}")


def _is_int(value) -> bool:
    """True for Python and numpy integers; False for bools."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def design_classification_block(
    state: AcquisitionState,
    model: GmmModel,
    b: int,
    seed=0,
    opts: AscentOptions | None = None,
) -> np.ndarray:
    """Design b orthonormal rows maximizing class separability.

    The design starts from the spectral start (_spectral_start): the best
    of the generalized eigenvectors of the mixture posterior and the
    posterior of the most likely class, scored as single rows. Only where
    that pencil has no factor does it start from a seeded random
    orthonormal block; the seed matters nowhere else.

    With an empty history, exactly two classes and both priors positive,
    the optimum is closed form (Fukunaga 1990, ch. 10): with P_g = Sigma_g
    + sigma2 I, the measure splits over the generalized eigenvectors of
    (P_1, P_2) into sum f(lambda_i), f(lambda) = 1/2 [log(w_1 lambda +
    w_2) - w_1 log lambda], and the b eigenvectors with the largest f,
    orthonormalized, are the optimum. They are the spectral start's
    candidates, scored f(lambda), so the start is returned unpolished where
    P_1 and P_2 are not bitwise equal, the start factored P_gamma directly
    (not on the range of Pavg) and no projected eigenvalue of it sits at
    its floor. Otherwise a single-row block (b = 1) is polished by
    Riemannian Newton on the unit sphere until the gain its next step
    predicts is within the score's rounding (_PLATEAU), where the score can
    no longer rank that step. Each Newton iterate and trial row goes
    through _project and _score like every other block, in _project's
    single-row case: one product P_k x of the posterior stack with x, and
    no eigh. A block of b > 1 rows takes steepest ascent with
    re-orthonormalization (row-space preserving), whose line searches
    after the first start from Barzilai-Borwein lengths (Barzilai & Borwein
    1988; Wen & Yin 2013), alternating the long and the short one. Every
    accepted step strictly raises the score, so the returned block scores
    at least as high as its start. With empty history this is the
    non-adaptive design; a full K-row non-adaptive layout is produced by a
    single call with b = K.

    A design on an empty history that does not depend on the seed is kept,
    read-only, in the model's _design_memo under (b, sigma2, opts), after
    the state's classes are checked against the model; later such calls
    return that array without designing. Rows from a seeded start are
    never kept.

    With the "gmmsense" logger enabled at DEBUG, each design logs one record
    with b, the start ("closed_form", "spectral" or "seeded"), the steps
    taken (Newton's for b = 1, the ascent's for b > 1), the trial steps the
    line searches rejected (backtracks), the Levenberg raises of Newton
    (shifts; 0 for b > 1), the final score, the final gradient norm
    (tangent to the row space) and the stop reason: "closed_form"
    (two-class optimum, no steps), "gain" (the Newton step's predicted gain
    within the score's rounding, b = 1), "tol" (relative improvement below
    _TOL, b > 1), "no_ascent" (no trial step improved the score),
    "max_iters" or "flat" (gradient exactly zero, as for identical classes
    or a class already decided).
    """
    if opts is None:
        opts = AscentOptions()
    n = model.dimension
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= {n}, got b={b}")
    _check_classes(state, model)
    empty = state.rows.shape == (0, n)
    if empty:
        key = (b, state.sigma2, opts)
        kept = model._design_memo.get(key)
        if kept is not None:
            return kept
    posteriors = posterior_matrices(state, model)
    weights = posteriors.weights
    steps = backtracks = shifts = 0
    grad_norm = None
    (block, direct), start = _spectral_start(posteriors, weights, b), "spectral"
    if block is None:
        block, start = random_orthonormal(b, n, seed=seed).rows, "seeded"
    elif (
        empty and direct and weights.shape == (2,) and weights.min() > 0.0
        and not np.array_equal(posteriors.stack[0], posteriors.stack[1])
    ):
        projection = _project(block, posteriors)
        if projection[3].all():
            start = reason = "closed_form"
    if start == "closed_form":
        score = _score(projection, weights)
    elif b == 1:
        block, score, grad_norm, steps, backtracks, shifts, reason = (
            _newton_on_sphere(block, posteriors, weights, opts.max_iters)
        )
    else:
        projection = _project(block, posteriors)
        block, projection, score, steps, backtracks, reason = _ascend(
            block, projection, _score(projection, weights), posteriors, weights,
            opts.max_iters,
        )
    if _LOG.isEnabledFor(logging.DEBUG):
        if grad_norm is None:
            grad = _gradient(projection, weights)
            grad_norm = float(np.linalg.norm(grad - grad @ block.T @ block))
        _LOG.debug(
            "design_classification_block b=%d start=%s steps=%d backtracks=%d shifts=%d "
            "score=%.12g grad_norm=%.3g stop=%s",
            b, start, steps, backtracks, shifts, score, grad_norm, reason,
        )
    if empty and start != "seeded":
        block = model._design_memo[key] = _readonly(block)
    return block


def _spectral_start(posteriors: PosteriorMatrices, weights: np.ndarray, b: int):
    """Starting block from the generalized eigenvectors of (Pavg, P_gamma).

    gamma is the most likely class under weights (the first on a tie) and
    Pavg the mixture posterior. Cholesky of P_gamma = L L^T, one inverse
    of L and one eigh of L^-1 Pavg L^-T give N candidate rows L^-T v, each
    normalized. A single row's measure is a weighted sum of log generalized
    Rayleigh quotients, so these are natural candidates. All candidates
    are scored as single rows in one pass, from their floored projections
    and _score's formula. Returns (block, direct): the best one (b = 1), or
    the best b orthonormalized, and whether P_gamma itself was factored
    (not on the range below). With an empty history and two classes
    the candidates are the generalized eigenvectors of (P_1, P_2) and their
    scores are f(lambda), so the start is the closed-form optimum that
    design_classification_block returns unpolished.

    Where P_gamma has no factor (no Cholesky, or a pivot at the eigenvalue
    floor; sigma2 = 0 with a history leaves the measured directions without
    variance), the pencil is built on the range of Pavg: its eigenvectors
    above EIG_FLOOR_REL times its scale. Returns (None, False), and the
    design falls back to a seeded random block, where that range is the
    whole space or holds fewer than b directions, or P_gamma has no factor
    on it either.
    """
    stack, scales = posteriors.stack, posteriors.scales
    gamma = int(np.argmax(weights))
    p_avg, p_gamma = stack[-1], stack[gamma]
    basis = None
    chol = _factor(p_gamma, scales[gamma])
    if chol is None:
        vals, vecs = np.linalg.eigh(p_avg)
        keep = vals > EIG_FLOOR_REL * scales[-1]
        basis = vecs[:, keep]
        if not b <= basis.shape[1] < p_avg.shape[0]:
            return None, False
        chol = _factor(basis.T @ p_gamma @ basis, scales[gamma])
        if chol is None:
            return None, False
        p_avg = np.diag(vals[keep])
    inv = np.linalg.inv(chol)
    _, vecs = np.linalg.eigh(symmetrize(inv @ p_avg @ inv.T))
    cand = vecs.T @ inv
    if basis is not None:
        cand = cand @ basis.T
    cand /= np.linalg.norm(cand, axis=1, keepdims=True)
    proj = np.sum((cand @ stack) * cand, axis=-1)             # (G+1, candidates)
    logs = np.log(np.maximum(proj, EIG_FLOOR_REL * scales[:, None]))
    scores = 0.5 * np.sum(weights[:, None] * (logs[-1] - logs[:-1]), axis=0)
    top = np.argsort(scores, kind="stable")[::-1][:b]
    return _orthonormalize_block(cand[top]), basis is None


def _factor(p: np.ndarray, scale: float):
    """Cholesky factor of p, or None where it fails or a squared pivot is
    at most EIG_FLOOR_REL times scale (p singular up to rounding)."""
    try:
        chol = np.linalg.cholesky(p)
    except np.linalg.LinAlgError:
        return None
    if float(np.diagonal(chol).min()) ** 2 <= EIG_FLOOR_REL * scale:
        return None
    return chol


def _ascend(block, projection, score, posteriors, weights, max_steps):
    """Backtracking steepest ascent with re-orthonormalization.

    The first line search (_line_search) starts at _STEP0, each later one
    from a Barzilai-Borwein length (_bb_step), or from twice the last
    accepted step where that is undefined. Returns (block, projection,
    score, accepted steps, rejected trial steps, stop reason).
    """
    step = _STEP0
    backtracks = 0
    grad = _gradient(projection, weights)
    for steps in range(max_steps):
        if float(np.abs(grad).max()) == 0.0:
            return block, projection, score, steps, backtracks, "flat"
        accepted, trial_step, rejected = _line_search(
            lambda t: _trial(block + t * grad, posteriors, weights), score, step
        )
        backtracks += rejected
        if accepted is None:
            return block, projection, score, steps, backtracks, "no_ascent"
        improvement = accepted.score - score
        previous, previous_grad = block, grad
        block, projection, score = accepted
        if improvement < _TOL * max(abs(score), 1e-12):
            return block, projection, score, steps + 1, backtracks, "tol"
        grad = _gradient(projection, weights)
        step = (
            _bb_step(block, block - previous, grad - previous_grad, steps + 1)
            or 2.0 * trial_step
        )
    return block, projection, score, max_steps, backtracks, "max_iters"


def _bb_step(block: np.ndarray, s: np.ndarray, y: np.ndarray, step_index: int) -> float:
    """Barzilai-Borwein length of the ascent step numbered step_index.

    s is the last accepted move, projected onto the tangent space at block
    (orthogonal to its row space); y is the gradient change over it.
    Even steps take the long length <s,s>/|<s,y>|, odd steps the short
    |<s,y>|/<y,y>. Returns 0 where the length is undefined (<s,y> or
    <y,y> is 0).
    """
    s = s - s @ block.T @ block
    sy = abs(float(np.sum(s * y)))
    yy = float(np.sum(y * y))
    if sy == 0.0 or yy == 0.0:
        return 0.0
    return float(np.sum(s * s)) / sy if step_index % 2 == 0 else sy / yy


def _line_search(trial_at, score: float, t: float):
    """The first of trial_at(t), trial_at(t / 2), ..., at most
    _MAX_BACKTRACKS trials, to score strictly above score (trial_at returns
    None where its step fails): (that trial or None, its step, rejected
    trials)."""
    for rejected in range(_MAX_BACKTRACKS):
        trial = trial_at(t)
        if trial is not None and trial.score > score:
            return trial, t, rejected
        t *= 0.5
    return None, t, _MAX_BACKTRACKS


class _Trial(NamedTuple):
    """A re-orthonormalized block with its _project result and score."""

    block: np.ndarray
    projection: tuple
    score: float


def _trial(candidate: np.ndarray, posteriors: PosteriorMatrices, weights: np.ndarray):
    """_Trial of the re-orthonormalized candidate; None where a step fails."""
    try:
        block = _orthonormalize_block(candidate)
        projection = _project(block, posteriors)
        return _Trial(block, projection, _score(projection, weights))
    except (ValueError, np.linalg.LinAlgError):
        return None


def _orthonormalize_block(candidate: np.ndarray) -> np.ndarray:
    if candidate.shape[0] == 1:
        norm = float(np.linalg.norm(candidate[0]))
        if norm == 0.0:
            raise SingularMatrixError("zero trial row")
        return candidate / norm
    return orthonormalize_rows(candidate)


def _row_gradients(point: _Trial, weights: np.ndarray):
    """(u, egrad, tangent gradient, slope) of the measure at a unit row.

    point is the _Trial of a row x, which holds P_k x and the floored c_k =
    x^T P_k x. u_k = P_k x / c_k on live projections and 0 on floored ones,
    so the Euclidean gradient egrad = u_avg - sum_g w_g u_g is _gradient's;
    the tangent gradient on the sphere is egrad - slope x with slope = x^T
    egrad, which is zero unless a projection is floored. The weighted sum
    is formed from the u_k, not from one combined coefficient vector, so
    identical classes cancel exactly.
    """
    x = point.block[0]
    bp, c, _, live = point.projection
    u = live / c * bp[:, 0]
    egrad = u[-1] - weights @ u[:-1]
    slope = float(x @ egrad)
    return u, egrad, egrad - slope * x, slope


def _row_newton_matrix(point: _Trial, u, egrad, slope: float, stack, signs) -> np.ndarray:
    """x x^T minus the Riemannian Hessian of the measure at a unit row x.

    signs holds (-w_1, ..., -w_G, 1). The Euclidean Hessian is H = M - 2
    sum_k s_k u_k u_k^T with M = sum_k (s_k / c_k) P_k and s_k the live
    signs, and H x = -egrad, since the measure is invariant to the scale
    of x. The Riemannian Hessian on the sphere is P (H - slope I) P with P
    = I - x x^T, so the result is slope I - M + 2 sum_k s_k u_k u_k^T +
    x (x - egrad)^T - egrad x^T: one (G+1) x N^2 product for M and one
    rank-(G+3) product. It maps x to x and tangent vectors to tangent
    vectors. x and the c_k come from x's _Trial, point.
    """
    x = point.block[0]
    _, c, _, live = point.projection
    n = x.shape[0]
    coef = signs * live[:, 0] / c[:, 0]
    a = (coef @ stack.reshape(coef.shape[0], n * n)).reshape(n, n)
    left = np.concatenate([u, x[None], egrad[None]])
    right = np.concatenate([2.0 * signs[:, None] * u, (x - egrad)[None], -x[None]])
    a = left.T @ right - a
    a.flat[:: n + 1] += slope
    return a


def _newton_on_sphere(v, posteriors, weights, max_steps):
    """Riemannian Newton ascent of the measure over unit rows v (1 x N).

    The start, every iterate and every trial (_trial) is a _Trial, as in
    the ascent, projected by _project's single-row case. With A from
    _row_newton_matrix and a Levenberg shift mu that makes A + mu I
    positive definite (checked by Cholesky), the step solving (A + mu I)
    xi = grad stays tangent and ascends. mu starts at 0, is divided by 10
    after each accepted step and raised to max(10 mu, 1e-3 max|A|) while
    the Cholesky fails. Newton stops ("gain") where the gain the step
    predicts, grad^T xi, is within the rounding of the score, which can
    then no longer rank the step (Boyd & Vandenberghe 2004, 9.5.1, stop on
    the Newton decrement). Otherwise the step is retracted onto the sphere
    and halved (_line_search) until the score strictly increases. Raises
    ProjectedCovarianceError where the start has a negative projection.
    Returns (v, score, final tangent gradient norm, accepted steps,
    rejected trial steps, Levenberg raises, stop reason).
    """
    signs = np.append(-weights, 1.0)
    projection = _project(v, posteriors)
    point = _Trial(v, projection, _score(projection, weights))
    eye = np.eye(v.shape[1])
    mu = 0.0
    steps = backtracks = shifts = 0
    while True:
        u, egrad, grad, slope = _row_gradients(point, weights)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            return point.block, point.score, norm, steps, backtracks, shifts, "flat"
        if steps == max_steps:
            return point.block, point.score, norm, steps, backtracks, shifts, "max_iters"
        a = _row_newton_matrix(point, u, egrad, slope, posteriors.stack, signs)
        for _ in range(_MAX_BACKTRACKS):
            shifted = a + mu * eye if mu else a
            try:
                np.linalg.cholesky(shifted)
                break
            except np.linalg.LinAlgError:
                mu = max(10.0 * mu, 1e-3 * float(np.abs(a).max()))
                shifts += 1
        else:
            return point.block, point.score, norm, steps, backtracks, shifts, "no_ascent"
        xi = np.linalg.solve(shifted, grad)
        if float(grad @ xi) <= _PLATEAU * max(1.0, abs(point.score)):
            return point.block, point.score, norm, steps, backtracks, shifts, "gain"
        accepted, _, rejected = _line_search(
            lambda t: _trial(point.block + t * xi, posteriors, weights), point.score, 1.0
        )
        backtracks += rejected
        if accepted is None:
            return point.block, point.score, norm, steps, backtracks, shifts, "no_ascent"
        point = accepted
        mu /= 10.0
        steps += 1


def design_reconstruction_block(
    state: AcquisitionState,
    model: GmmModel,
    component_index: int,
    m: int,
) -> np.ndarray:
    """Closed-form reconstruction rows for a known class given the history.

    Returns the transposed first m eigenvectors of the class posterior
    covariance, which maximize the volume of the projected posterior over
    all orthonormal blocks. With empty history the posterior shares the
    component's eigenvectors, so this reduces to the static minimum-MSE
    design.
    """
    n = model.dimension
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got m={m}")
    comp = model.component(component_index)
    posterior = _condition_in_place(
        np.array(comp.covariance[None, :, :]), state.rows, state.sigma2
    )[0]
    # The posterior is PSD by construction, but conditioning can leave
    # rounding negatives beyond the strict PSD check; only the eigenvectors
    # are used, so the eigenvalues are neither checked nor clamped.
    _, vecs = eigh_descending(posterior)
    return vecs[:, :m].T
