"""Information-driven sensing-row design.

Two objectives drive everything here. For class detection, new rows
maximize a separability measure: half the gap between the log-volume of the
projected mixture covariance and the prior-weighted log-volumes of the
projected class covariances. The measure upper-bounds the mutual
information between the new measurements and the class label given the
measurement history, and has a closed-form gradient, so blocks are designed
by steepest ascent with re-orthonormalization. For reconstruction with a
known class, the optimal block is closed form: the top eigenvectors of that
class's posterior covariance given the history.
"""

from __future__ import annotations

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
from .model import GmmModel, _readonly

__all__ = [
    "AcquisitionState",
    "PosteriorMatrices",
    "ProjectedCovarianceError",
    "AscentOptions",
    "measurement_log_likelihoods",
    "posterior_matrices",
    "separability_measure",
    "separability_gradient",
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
    priors while no measurement has been made).
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
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be >= 0")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if abs(float(self.class_priors.sum()) - 1.0) > 1e-12:
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
        with np.errstate(divide="ignore"):  # zero priors stay at zero posterior
            log_post = loglik + np.log(model.priors)
        log_post -= log_post.max()
        post = np.exp(log_post)
        post /= post.sum()
        return AcquisitionState(
            rows=all_rows,
            measurements=all_y,
            sigma2=self.sigma2,
            block_size=self.block_size,
            class_log_likelihoods=loglik,
            class_priors=post,
        )


def measurement_log_likelihoods(
    rows: np.ndarray, y: np.ndarray, model: GmmModel, sigma2: float
) -> np.ndarray:
    """Joint Gaussian log p(y | g) of stacked measurements for every class.

    For each class g the measurement covariance is rows @ cov_g @ rows.T +
    sigma2 I and the quadratic form uses the class-mean-centered
    measurements. Eigenvalues are floored before inverting, which keeps the
    sigma2 = 0 case finite once measurements span a component's support.
    """
    rows = np.asarray(rows, dtype=float)
    y = np.asarray(y, dtype=float)
    m = rows.shape[0]
    cov = rows @ model.covariance_stack @ rows.T + sigma2 * np.eye(m)
    vals, vecs = sym_floored_eigh(cov)
    centered = y[None, :] - model.mean_stack @ rows.T
    proj = np.einsum("gi,gij->gj", centered, vecs)
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

    A floored eigenvalue is locally constant, so it gets zero weight.
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


def separability_gradient(
    block,
    state: AcquisitionState,
    model: GmmModel,
    posteriors: PosteriorMatrices | None = None,
) -> np.ndarray:
    """Gradient of the separability score at a candidate block.

    Returns (B Pavg B^T)^-1 B Pavg - sum_g w_g (B P_g B^T)^-1 B P_g. This
    is the exact gradient of the measure: differentiating each
    log-determinant contributes a factor of two that cancels the one-half
    in the measure. Each inverse keeps only the eigenvalues above the
    floor: a floored eigenvalue is locally constant, so it contributes
    nothing, at every block size.
    """
    rows = as_rows(block)
    require_orthonormal_rows(rows, "candidate")
    if posteriors is None:
        posteriors = posterior_matrices(state, model)
    return _gradient(_project(rows, posteriors), state.class_priors)


@dataclass(frozen=True)
class AscentOptions:
    """Steepest-ascent hyperparameters for the block design.

    step0 is the initial step size, halved while a trial step decreases the
    objective; tol is the relative-improvement stopping threshold;
    max_iters caps the accepted iterations.
    """

    step0: float = 0.1
    tol: float = 1e-6
    max_iters: int = 200
    max_backtracks: int = 40


def design_classification_block(
    state: AcquisitionState,
    model: GmmModel,
    b: int,
    seed=0,
    opts: AscentOptions | None = None,
) -> np.ndarray:
    """Design b orthonormal rows maximizing class separability.

    Steepest ascent from a seeded random orthonormal block; every accepted
    iterate re-orthonormalizes the rows (row-space preserving) and never
    decreases the objective, so the returned block scores at least as high
    as the initialization. With empty history this is the non-adaptive
    design; a full K-row non-adaptive layout is produced by a single call
    with b = K.
    """
    if opts is None:
        opts = AscentOptions()
    n = model.dimension
    if not 1 <= b <= n:
        raise ValueError(f"need 1 <= b <= {n}, got b={b}")
    posteriors = posterior_matrices(state, model)
    weights = state.class_priors
    block = random_orthonormal(b, n, seed=seed).rows
    projection = _project(block, posteriors)
    score = _score(projection, weights)
    step = opts.step0
    for _ in range(opts.max_iters):
        grad = _gradient(projection, weights)
        if float(np.abs(grad).max()) == 0.0:
            break
        accepted = None
        trial_step = step
        for _ in range(opts.max_backtracks):
            try:
                trial = _orthonormalize_block(block + trial_step * grad)
                trial_projection = _project(trial, posteriors)
                trial_score = _score(trial_projection, weights)
            except (ValueError, np.linalg.LinAlgError):
                trial_score = -np.inf
            if trial_score > score:
                accepted = (trial, trial_projection, trial_score)
                break
            trial_step *= 0.5
        if accepted is None:
            break
        improvement = accepted[2] - score
        block, projection, score = accepted
        # Start the next line search from twice the accepted step so a
        # well-scaled step is found in O(1) trials.
        step = 2.0 * trial_step
        if improvement < opts.tol * max(abs(score), 1e-12):
            break
    return block


def _orthonormalize_block(candidate: np.ndarray) -> np.ndarray:
    if candidate.shape[0] == 1:
        norm = float(np.linalg.norm(candidate[0]))
        if norm == 0.0:
            raise SingularMatrixError("zero trial row")
        return candidate / norm
    return orthonormalize_rows(candidate)


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
    # The posterior is PSD by construction; conditioning can leave rounding
    # negatives beyond the strict PSD check, so clamp instead of rejecting.
    _, vecs = eigh_descending(posterior)
    return vecs[:, :m].T
