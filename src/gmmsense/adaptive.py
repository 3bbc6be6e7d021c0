"""Information-driven sensing-row design.

Two objectives drive everything here. For class detection, new rows
maximize a separability measure: half the gap between the log-volume of the
projected mixture covariance and the prior-weighted log-volumes of the
projected class covariances. The measure upper-bounds the mutual
information between the new measurements and the class label given the
measurement history. For two classes and an empty history its optimum is
closed form: the top generalized eigenvectors of the two class covariances
(plus noise), ranked by their share of the measure. Otherwise a block starts
from the spectral start: the generalized eigenvectors of the mixture
posterior and the posterior of the most likely class, scored as single rows
in one pass. A single row has a cheap closed-form Hessian, so it is then
polished by Riemannian Newton on the unit sphere; a block of several rows
takes steepest ascent with re-orthonormalization, whose line searches start
from Barzilai-Borwein step lengths. For reconstruction with a known class,
the optimal block is closed form: the top eigenvectors of that class's
posterior covariance given the history.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

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
from .model import GmmModel, _check_sigma2, _readonly, _require_finite

__all__ = [
    "AcquisitionState",
    "PosteriorMatrices",
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
    """Measurement history of one signal plus running class statistics.

    rows stacks the acquired measurement blocks (possibly empty); each block
    had orthonormal rows when appended, but different blocks need not be
    mutually orthogonal. class_log_likelihoods holds the joint Gaussian
    log-likelihood of all measurements so far under each class;
    class_priors are the Bayes-updated class probabilities (the model
    priors while no measurement has been made). sigma2 must be finite and
    >= 0 and the measurements finite (ValueError).
    """

    rows: np.ndarray
    measurements: np.ndarray
    sigma2: float
    block_size: int
    class_log_likelihoods: np.ndarray
    class_priors: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _readonly(self.rows))
        object.__setattr__(self, "measurements", _readonly(self.measurements))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        object.__setattr__(
            self, "class_log_likelihoods", _readonly(self.class_log_likelihoods)
        )
        object.__setattr__(self, "class_priors", _readonly(self.class_priors))
        if self.rows.ndim != 2:
            raise ValueError("rows must be a 2-D array")
        if self.measurements.shape != (self.rows.shape[0],):
            raise ValueError("measurements length must match the row count")
        _require_finite(self.measurements[None, :], "measurements")
        _check_sigma2(self.sigma2)
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.class_log_likelihoods.shape != self.class_priors.shape:
            raise ValueError(
                f"class log-likelihoods of shape {self.class_log_likelihoods.shape} "
                f"do not match class priors of shape {self.class_priors.shape}"
            )
        if not abs(float(self.class_priors.sum()) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("class priors must sum to 1")

    @classmethod
    def initial(
        cls, model: GmmModel, sigma2: float, block_size: int = 1
    ) -> "AcquisitionState":
        """Empty history: no rows, zero log-likelihoods, model priors."""
        n = model.dimension
        return cls(
            rows=np.empty((0, n)),
            measurements=np.empty(0),
            sigma2=sigma2,
            block_size=block_size,
            class_log_likelihoods=np.zeros(model.n_components),
            class_priors=model.priors.copy(),
        )

    @property
    def n_measurements(self) -> int:
        return self.rows.shape[0]

    def append_block(self, block, measurements, model: GmmModel) -> "AcquisitionState":
        """Return a new state with one more measured block.

        The incoming block must have orthonormal rows; the joint class
        log-likelihoods are recomputed exactly on the stacked history and
        the priors Bayes-updated from the model priors.
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
        return AcquisitionState(
            rows=all_rows,
            measurements=all_y,
            sigma2=self.sigma2,
            block_size=self.block_size,
            class_log_likelihoods=loglik,
            class_priors=_bayes_posteriors(loglik, model.priors),
        )


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


@dataclass(frozen=True)
class PosteriorMatrices:
    """Class and mixture covariances conditioned on the measurement history.

    stack holds G + 1 symmetric N x N matrices: the G class posteriors
    first, then the posterior of the prior-weighted mixture covariance.
    All are positive definite once sigma2 > 0.

    scales carries the largest diagonal entry of each unconditioned
    covariance (plus sigma2), in the same order. Projected eigenvalues are
    floored at EIG_FLOOR_REL times the matching scale, which keeps the
    separability measure finite for classes whose posterior has collapsed
    (history spans their support at zero noise). A matrix with zero scale
    has no variance at all and an undefined log-determinant, so it is
    rejected here with ProjectedCovarianceError.
    """

    stack: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "stack", _readonly(self.stack))
        object.__setattr__(self, "scales", _readonly(self.scales))
        _reject_first(self.scales <= 0.0)


def _reject_first(bad: np.ndarray) -> None:
    """Raise for the first flagged matrix of a stack; the last is the average."""
    if bad.any():
        i = int(np.argmax(bad))
        raise ProjectedCovarianceError(None if i == bad.shape[0] - 1 else i + 1)


def _conditioned_covariance(
    cov: np.ndarray, rows: np.ndarray, sigma2: float
) -> np.ndarray:
    """cov - cov R^T (R cov R^T + sigma2 I)^-1 R cov + sigma2 I.

    Works on a stack of covariances; the inner inverse uses eigenvalue
    flooring. With empty history this is just cov + sigma2 I.
    """
    n = cov.shape[-1]
    eye_n = np.eye(n)
    if rows.shape[0] == 0:
        return symmetrize(cov + sigma2 * eye_n)
    a = cov @ rows.T                      # (..., N, m)
    inner = np.swapaxes(a, -1, -2) @ rows.T  # R cov R^T, shape (..., m, m)
    inner = inner + sigma2 * np.eye(rows.shape[0])
    vals, vecs = sym_floored_eigh(inner)
    inv = (vecs / vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    post = cov - a @ inv @ np.swapaxes(a, -1, -2) + sigma2 * eye_n
    return symmetrize(post)


def posterior_matrices(state: AcquisitionState, model: GmmModel) -> PosteriorMatrices:
    """Posterior (innovation) covariances given the measurement history.

    Stacks the class covariances and their mixture average under the
    state's current class priors (so during a sequential acquisition the
    average tracks the Bayes-updated posterior) and conditions all G + 1
    on the history at once. Determinant floors are anchored at the
    unconditioned covariance scales.
    """
    if state.rows.shape[1:] and state.rows.shape[1] != model.dimension:
        raise ValueError("state dimension does not match the model")
    avg_cov = np.einsum("g,gij->ij", state.class_priors, model.covariance_stack)
    covs = np.concatenate([model.covariance_stack, avg_cov[None]])
    try:
        stack = _conditioned_covariance(covs, state.rows, state.sigma2)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"singular measurement covariance in a posterior: {exc}"
        ) from exc
    scales = np.diagonal(covs, axis1=-2, axis2=-1).max(axis=-1) + state.sigma2
    return PosteriorMatrices(stack=stack, scales=scales)


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
    ProjectedCovarianceError naming the offending class. A single-row block
    reads its 1 x 1 projections directly instead of calling eigh.
    """
    bp = block @ posteriors.stack                 # (G+1, b, N)
    proj = bp @ block.T                           # (G+1, b, b)
    if block.shape[0] == 1:
        vals, vecs = proj[:, 0, :], np.ones((1, 1, 1))
    else:
        vals, vecs = np.linalg.eigh(symmetrize(proj))
    scales = posteriors.scales
    _reject_first(vals[:, 0] < -_PROJ_NEG_TOL * scales)
    floors = EIG_FLOOR_REL * scales[:, None]
    live = vals > floors
    return bp, np.maximum(vals, floors), vecs, live


def _score(projection, weights: np.ndarray) -> float:
    """Separability measure of a block from its _project result."""
    logdets = np.sum(np.log(projection[1]), axis=-1)
    return 0.5 * float(np.sum(weights * (logdets[-1] - logdets[:-1])))


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


def separability_measure(
    block,
    state: AcquisitionState,
    model: GmmModel,
    posteriors: PosteriorMatrices | None = None,
) -> float:
    """Class-separability score of a candidate measurement block.

    Half the prior-weighted sum over classes of (logdet of the projected
    mixture posterior - logdet of the projected class posterior). The
    additive constant carried by the measurement history is dropped. With
    empty history this is the non-adaptive form on the raw covariances.
    Zero when all class covariances coincide.
    """
    rows = as_rows(block)
    require_orthonormal_rows(rows, "candidate")
    if posteriors is None:
        posteriors = posterior_matrices(state, model)
    return _score(_project(rows, posteriors), state.class_priors)


# Steepest-ascent constants of the block design: the first trial step,
# halved up to _MAX_BACKTRACKS times while a trial does not improve the
# score, and the relative improvement below which the ascent stops.
_STEP0 = 0.1
_MAX_BACKTRACKS = 40
_TOL = 1e-6

# Single-row blocks: Riemannian Newton polishes until the norm of the
# gradient on the sphere is at most _GRAD_TOL.
_GRAD_TOL = 1e-9
# Predicted gain, relative to max(1, |score|), below which the score's
# rounding (a few ulps of the summed log-determinants) hides a step's gain.
_PLATEAU = 1e-12

_LOG = logging.getLogger("gmmsense")


@dataclass(frozen=True)
class AscentOptions:
    """Options of the block design.

    max_iters caps the accepted steps of the search that follows the
    starting block: Riemannian Newton for a single-row block (b = 1),
    steepest ascent with Barzilai-Borwein steps for b > 1. 0 returns the
    starting block itself: the two-class closed form, the spectral start
    or, where no pencil factor exists, the seeded random block.
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

    With an empty history, exactly two classes and both priors positive,
    the optimum is closed form (Fukunaga 1990, ch. 10): with P_g = Sigma_g
    + sigma2 I, the measure splits over the generalized eigenvectors of
    (P_1, P_2) into sum f(lambda_i), f(lambda) = 1/2 [log(w_1 lambda +
    w_2) - w_1 log lambda], and the b eigenvectors with the largest f,
    orthonormalized, are returned. The closed form is skipped when P_1 and
    P_2 are bitwise equal, when P_2 has no Cholesky factor or some lambda
    <= 0, or when a projected eigenvalue of the result sits at its floor.

    Otherwise the design starts from the spectral start (_spectral_start):
    the best of the generalized eigenvectors of the mixture posterior and
    the posterior of the most likely class, scored as single rows. Only
    where that pencil has no factor does it start from a seeded random
    orthonormal block; the seed matters nowhere else. From the start, a
    single-row block (b = 1) is polished by Riemannian Newton on the unit
    sphere until the norm of its gradient there is at most _GRAD_TOL; a
    Newton step whose gain is below the score's rounding is ranked by the
    gradient norm instead. A block of b > 1 rows takes steepest ascent
    with re-orthonormalization (row-space preserving), whose line searches
    after the first start from Barzilai-Borwein lengths (Barzilai & Borwein
    1988; Wen & Yin 2013), alternating the long and the short one. Every
    accepted step strictly raises the score, so the returned block scores
    at least as high as its start. With empty history this is the
    non-adaptive design; a full K-row non-adaptive layout is produced by a
    single call with b = K.

    With the "gmmsense" logger enabled at DEBUG, each call logs one record
    with b, the start ("closed_form", "spectral" or "seeded"), the ascent
    and Newton steps taken, the final score, the final gradient norm
    (tangent to the row space) and the stop reason: "closed_form"
    (two-class optimum, no steps), "grad" (gradient norm reached, b = 1),
    "tol" (relative improvement below _TOL, b > 1), "no_ascent" (no trial
    step improved the score), "max_iters" or "flat" (gradient exactly
    zero, as for identical classes or a class already decided).
    """
    return _classification_design(state, model, b, seed, opts)[0]


def _classification_design(state, model, b, seed, opts):
    """design_classification_block's (block, start): start is "closed_form",
    "spectral" or "seeded", and only a seeded block depends on seed."""
    if opts is None:
        opts = AscentOptions()
    n = model.dimension
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= {n}, got b={b}")
    posteriors = posterior_matrices(state, model)
    weights = state.class_priors
    closed = None
    if state.n_measurements == 0 and weights.shape == (2,):
        closed = _two_class_design(posteriors, weights, b)
    ascent_steps = newton_steps = 0
    if closed is not None:
        block, projection = closed
        score = _score(projection, weights)
        start = reason = "closed_form"
    else:
        block, start = _spectral_start(posteriors, weights, b), "spectral"
        if block is None:
            block, start = random_orthonormal(b, n, seed=seed).rows, "seeded"
        projection = _project(block, posteriors)
        score = _score(projection, weights)
        if b == 1:
            block, projection, score, newton_steps, reason = _newton_on_sphere(
                block, projection, score, posteriors, weights, opts.max_iters
            )
        else:
            block, projection, score, ascent_steps, reason = _ascend(
                block, projection, score, posteriors, weights, opts.max_iters
            )
    if _LOG.isEnabledFor(logging.DEBUG):
        grad = _gradient(projection, weights)
        grad_norm = float(np.linalg.norm(grad - grad @ block.T @ block))
        _LOG.debug(
            "design_classification_block b=%d start=%s ascent_steps=%d newton_steps=%d "
            "score=%.12g grad_norm=%.3g stop=%s",
            b, start, ascent_steps, newton_steps, score, grad_norm, reason,
        )
    return block, start


def _two_class_design(posteriors: PosteriorMatrices, weights: np.ndarray, b: int):
    """Closed-form optimal b rows for two classes with an empty history.

    Cholesky of P_2 = L L^T, then eigh of L^-1 P_1 L^-T gives the
    generalized eigenpairs of (P_1, P_2); the b eigenvectors with the
    largest f(lambda) (stable sort), orthonormalized, are the optimum.
    Returns (block, its _project result), or None where the closed form
    does not apply: a zero prior, bitwise equal P_1 and P_2, no Cholesky
    factor, some lambda <= 0, or a projected eigenvalue at its floor.
    """
    w1, w2 = weights
    p1, p2 = posteriors.stack[0], posteriors.stack[1]
    if w1 <= 0.0 or w2 <= 0.0 or np.array_equal(p1, p2):
        return None
    try:
        chol = np.linalg.cholesky(p2)
    except np.linalg.LinAlgError:
        return None
    half = np.linalg.solve(chol, p1)
    lam, vecs = np.linalg.eigh(symmetrize(np.linalg.solve(chol, half.T)))
    if lam[0] <= 0.0:
        return None
    f = 0.5 * (np.log(w1 * lam + w2) - w1 * np.log(lam))
    top = np.argsort(f, kind="stable")[::-1][:b]
    block = orthonormalize_rows(np.linalg.solve(chol.T, vecs[:, top]).T)
    projection = _project(block, posteriors)
    if not projection[3].all():
        return None
    return block, projection


def _spectral_start(posteriors: PosteriorMatrices, weights: np.ndarray, b: int):
    """Starting block from the generalized eigenvectors of (Pavg, P_gamma).

    gamma is the most likely class under weights (the first on a tie) and
    Pavg the mixture posterior. Cholesky of P_gamma = L L^T, one inverse
    of L and one eigh of L^-1 Pavg L^-T give N candidate rows L^-T v, each
    normalized. A single row's measure is a weighted sum of log generalized
    Rayleigh quotients, so these are natural candidates; with an empty
    history and two classes they span the closed-form optimum. All candidates are scored as single
    rows in one pass, from their floored projections and _score's formula;
    the best one (b = 1), or the best b orthonormalized, are returned.

    Where P_gamma has no factor (no Cholesky, or a pivot at the eigenvalue
    floor; sigma2 = 0 with a history leaves the measured directions without
    variance), the pencil is built on the range of Pavg: its eigenvectors
    above EIG_FLOOR_REL times its scale. Returns None, and the design falls
    back to a seeded random block, where that range is the whole space or
    holds fewer than b directions, or P_gamma has no factor on it either.
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
            return None
        chol = _factor(basis.T @ p_gamma @ basis, scales[gamma])
        if chol is None:
            return None
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
    return _orthonormalize_block(cand[top])


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

    The first line search starts at _STEP0, each later one from a
    Barzilai-Borwein length (_bb_step), or from twice the last accepted
    step where that is undefined. Returns (block, projection, score,
    accepted steps, stop reason).
    """
    step = _STEP0
    grad = _gradient(projection, weights)
    for steps in range(max_steps):
        if float(np.abs(grad).max()) == 0.0:
            return block, projection, score, steps, "flat"
        accepted = None
        trial_step = step
        for _ in range(_MAX_BACKTRACKS):
            trial = _trial(block + trial_step * grad, posteriors, weights)
            if trial[2] > score:
                accepted = trial
                break
            trial_step *= 0.5
        if accepted is None:
            return block, projection, score, steps, "no_ascent"
        improvement = accepted[2] - score
        previous, previous_grad = block, grad
        block, projection, score = accepted
        if improvement < _TOL * max(abs(score), 1e-12):
            return block, projection, score, steps + 1, "tol"
        grad = _gradient(projection, weights)
        step = (
            _bb_step(block, block - previous, grad - previous_grad, steps + 1)
            or 2.0 * trial_step
        )
    return block, projection, score, max_steps, "max_iters"


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


def _trial(candidate: np.ndarray, posteriors: PosteriorMatrices, weights: np.ndarray):
    """(block, projection, score) of the re-orthonormalized candidate; score
    -inf, block and projection None where either step fails."""
    try:
        block = _orthonormalize_block(candidate)
        projection = _project(block, posteriors)
        return block, projection, _score(projection, weights)
    except (ValueError, np.linalg.LinAlgError):
        return None, None, -np.inf


def _orthonormalize_block(candidate: np.ndarray) -> np.ndarray:
    if candidate.shape[0] == 1:
        norm = float(np.linalg.norm(candidate[0]))
        if norm == 0.0:
            raise SingularMatrixError("zero trial row")
        return candidate / norm
    return orthonormalize_rows(candidate)


def _hessian(projection, stack: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Euclidean Hessian of the separability measure at a single row v.

    With a = v^T Pavg v and c_g = v^T P_g v it is Pavg/a - 2 Pavg v v^T
    Pavg/a^2 - sum_g w_g (P_g/c_g - 2 P_g v v^T P_g/c_g^2). Floored
    projections are locally constant and get zero weight, as in _gradient.
    """
    bp, vals, _, live = projection
    signs = np.append(-weights, 1.0) * live[:, 0]
    c = vals[:, 0]
    u = bp[:, 0, :] / c[:, None]                  # P_k v / (v^T P_k v)
    return np.einsum("k,kij->ij", signs / c, stack) - 2.0 * (u.T * signs) @ u


def _sphere_gradient(v: np.ndarray, projection, weights: np.ndarray):
    """Gradient of the measure on the unit sphere at a single row v (1 x N).

    Returns the tangent gradient and the slope v^T egrad of the Euclidean
    gradient egrad, which is zero unless a projection is floored.
    """
    egrad = _gradient(projection, weights)[0]
    slope = float(v[0] @ egrad)
    return egrad - slope * v[0], slope


def _newton_matrix(v: np.ndarray, projection, stack, weights, slope: float) -> np.ndarray:
    """v v^T minus the Riemannian Hessian of the measure at a unit row v.

    The Riemannian Hessian on the sphere is P (H - slope I) P with P = I -
    v v^T, H the Euclidean Hessian and slope = v^T egrad; it is assembled
    from H by rank-one updates. The result maps v to v and tangent vectors
    to tangent vectors.
    """
    x = v[0]
    hess = _hessian(projection, stack, weights)
    hx = hess @ x
    a = slope * np.eye(x.shape[0]) - hess
    a += np.outer(x, hx) + np.outer(hx, x)
    a += (1.0 - float(x @ hx) - slope) * np.outer(x, x)
    return a


def _newton_on_sphere(v, projection, score, posteriors, weights, max_steps):
    """Riemannian Newton ascent of the measure over unit rows v (1 x N).

    With A from _newton_matrix and a Levenberg shift mu that makes A + mu I
    positive definite (checked by Cholesky), the step solving
    (A + mu I) xi = grad stays tangent and ascends. mu starts at 0, is
    divided by 10 after each accepted step and raised to max(10 mu,
    1e-3 max|A|) while the Cholesky fails. The step is retracted onto the
    sphere and halved until the score strictly increases. Once the gain the
    step predicts, grad^T xi, is below the rounding of the score, the score
    cannot rank the full step, and it is taken if it shrinks the gradient
    norm instead. Returns (v, projection, score, accepted steps, stop
    reason).
    """
    eye = np.eye(v.shape[1])
    mu = 0.0
    steps = 0
    while True:
        grad, slope = _sphere_gradient(v, projection, weights)
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            return v, projection, score, steps, "flat"
        if norm <= _GRAD_TOL:
            return v, projection, score, steps, "grad"
        if steps == max_steps:
            return v, projection, score, steps, "max_iters"
        a = _newton_matrix(v, projection, posteriors.stack, weights, slope)
        scale = float(np.abs(a).max())
        for _ in range(_MAX_BACKTRACKS):
            shifted = a + mu * eye
            try:
                np.linalg.cholesky(shifted)
                break
            except np.linalg.LinAlgError:
                mu = max(10.0 * mu, 1e-3 * scale)
        else:
            return v, projection, score, steps, "no_ascent"
        xi = np.linalg.solve(shifted, grad)
        plateau = float(grad @ xi) <= _PLATEAU * max(1.0, abs(score))
        accepted = None
        t = 1.0
        for _ in range(_MAX_BACKTRACKS):
            trial = _trial(v + t * xi, posteriors, weights)
            if trial[2] > score:
                accepted = trial
                break
            if plateau:
                if trial[2] > -np.inf:
                    trial_grad, _ = _sphere_gradient(trial[0], trial[1], weights)
                    if np.linalg.norm(trial_grad) < norm:
                        accepted = trial
                break
            t *= 0.5
        if accepted is None:
            return v, projection, score, steps, "no_ascent"
        v, projection, score = accepted
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
    posterior = _conditioned_covariance(
        comp.covariance[None, :, :], state.rows, state.sigma2
    )[0]
    # The posterior is PSD by construction, but conditioning can leave
    # rounding negatives beyond the strict PSD check; only the eigenvectors
    # are used, so the eigenvalues are neither checked nor clamped.
    _, vecs = eigh_descending(posterior)
    return vecs[:, :m].T
