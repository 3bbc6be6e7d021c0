"""Model initialization and training loops for the experiment harness.

Natural-image models start from patches grouped by dominant gradient
orientation (one flat class plus evenly spaced orientation bins), then
refine with the reconstruction/moment-update loop. Training can co-adapt
the sensing matrix and the model by redesigning the rows between
iterations.
"""

from __future__ import annotations

import numpy as np

from ._linalg import symmetrize
from .design import SensingMatrix, random_orthonormal, rip_ab
from .inference import map_em
from .model import GaussianComponent, GmmModel, SignalBatch, _mean_energy, m_step_update

__all__ = [
    "orientation_labels",
    "init_gmm_by_orientation",
    "regularize_model",
    "train_gmm",
    "train_gmm_coadapt",
    "supervised_gmm",
]


# Diagonal load of a trained patch model, relative to the mean per-sample
# energy of its training batch.
LOAD_REL = 1e-3


def regularize_model(model: GmmModel, batch: SignalBatch) -> GmmModel:
    """Add a diagonal load to every component covariance.

    The load is LOAD_REL times the mean per-sample energy of the batch,
    shared across components so sparse classes get a meaningful floor.
    Empirical patch models are near-singular, which destabilizes
    log-determinant criteria; a small shared load keeps every class full
    rank.
    """
    load = LOAD_REL * max(_mean_energy(batch), 1e-300)
    eye = np.eye(model.dimension)
    comps = tuple(
        GaussianComponent.from_moments(c.mean, c.covariance + load * eye, c.prior)
        for c in model.components
    )
    return GmmModel(components=comps)


# Patches per chunk of orientation_labels' gradient sums: the gradients and
# their products are formed a chunk at a time, never for the whole batch.
_ORIENTATION_CHUNK = 2048


def orientation_labels(batch: SignalBatch, orientation_bins: int = 18) -> np.ndarray:
    """Assign each square patch to a gradient-orientation bin.

    Label 1 is the flat class (negligible gradient energy); labels
    2..orientation_bins+1 split [0, pi) evenly by the structure-tensor
    orientation of the patch. orientation_bins = 0 puts every patch in
    the flat class.
    """
    if orientation_bins < 0:
        raise ValueError(f"orientation_bins must be >= 0, got {orientation_bins}")
    n = batch.dimension
    p = int(round(np.sqrt(n)))
    if p * p != n:
        raise ValueError("orientation grouping requires square patches")
    imgs = batch.signals.reshape(-1, p, p)
    sxx, syy, sxy = np.empty((3, imgs.shape[0]))
    for start in range(0, imgs.shape[0], _ORIENTATION_CHUNK):
        chunk = slice(start, start + _ORIENTATION_CHUNK)
        gy, gx = np.gradient(imgs[chunk], axis=(1, 2))
        sxx[chunk] = np.sum(gx * gx, axis=(1, 2))
        syy[chunk] = np.sum(gy * gy, axis=(1, 2))
        sxy[chunk] = np.sum(gx * gy, axis=(1, 2))
    energy = sxx + syy
    theta = 0.5 * np.arctan2(2.0 * sxy, sxx - syy)  # in (-pi/2, pi/2]
    theta = np.mod(theta, np.pi)
    bins = np.minimum(
        (theta / np.pi * orientation_bins).astype(int), orientation_bins - 1
    )
    labels = bins + 2
    flat = energy <= 1e-3 * max(float(energy.mean()), 1e-300)
    labels[flat] = 1
    return labels


def _fallback_model(batch: SignalBatch, g_total: int) -> GmmModel:
    """g_total copies of the global batch moments with equal priors: the
    moments m_step_update keeps for a class given fewer than two signals."""
    mean = batch.signals.mean(axis=0)
    centered = batch.signals - mean
    cov = symmetrize(centered.T @ centered / batch.n_signals)
    return GmmModel(
        components=(GaussianComponent.from_moments(mean, cov, 1.0 / g_total),) * g_total
    )


def init_gmm_by_orientation(
    batch: SignalBatch, orientation_bins: int = 18
) -> GmmModel:
    """Initial patch model: flat class + orientation bins, moment-fitted.

    Bins with fewer than two patches fall back to the global batch moments
    (with their empirical prior), keeping every component well defined.
    """
    labels = orientation_labels(batch, orientation_bins)
    return m_step_update(batch.signals, labels, _fallback_model(batch, orientation_bins + 1))


def _check_iters(iters: int) -> None:
    if iters < 0:
        raise ValueError(f"iters must be >= 0, got {iters}")


def train_gmm(
    batch: SignalBatch,
    orientation_bins: int = 18,
    iters: int = 2,
    sigma2: float | None = None,
) -> GmmModel:
    """Fit a patch model on raw signals: orientation init + EM refinement.

    The refinement runs the reconstruction/moment loop with identity
    sensing. sigma2 regularizes the model-selection objective; by default
    it is scaled to a small fraction of the mean per-sample signal energy.
    With exact full observations the objective is the quadratic form
    sigma2 x_c^T (Sigma_g + sigma2 I)^-1 x_c of each class's one
    factorization (see map_em), so it needs a positive noise level to
    discriminate: at sigma2 = 0 every class with a full-rank covariance
    fits every patch exactly and the lowest such index wins. The returned
    covariances carry a shared diagonal load of LOAD_REL times the mean
    per-sample energy.
    iters = 0 keeps the orientation model. Each EM pass scores every class
    with one matrix product per chunk of signals, then solves once per
    signal for its winning class (see map_em): on top of the (S, N)
    signals it holds one (S, N) array of estimates and transients of at
    most one class's signals, with no (G, S, N) array.
    """
    _check_iters(iters)
    model = init_gmm_by_orientation(batch, orientation_bins)
    if iters >= 1:
        if sigma2 is None:
            sigma2 = max(1e-4 * _mean_energy(batch), 1e-12)
        identity = SensingMatrix(rows=np.eye(batch.dimension))
        model = map_em(batch.signals, identity, model, sigma2, kappa=iters)
    return regularize_model(model, batch)


def train_gmm_coadapt(
    batch: SignalBatch,
    method: str,
    m: int,
    orientation_bins: int = 18,
    iters: int = 11,
    sigma2: float = 0.0,
    seed: int = 0,
) -> GmmModel:
    """Co-adapt the sensing rows and the model from compressed measurements.

    Each iteration designs m rows for the current model (random rows are
    drawn once and kept fixed), measures the training signals, and runs one
    reconstruction/moment-update pass. This is the offline training used
    before batch evaluation, where the sensing matrix depends on the model
    being learned. Each pass scores the classes by the closed-form ridge
    objective of map_em. With sigma2 = 0 that is the residual alone, 0 for
    every class whose projected covariance R Sigma_g R^T is full rank (as
    it is for m orthonormal rows and a full-rank covariance), so such
    classes tie and the lowest such index takes every signal; a positive
    sigma2 separates them.
    """
    if method not in ("random", "rip_ab"):
        raise ValueError(f"co-adaptation supports random or rip_ab, got {method!r}")
    _check_iters(iters)
    model = init_gmm_by_orientation(batch, orientation_bins)
    rng = np.random.default_rng([seed, 404])
    random_rows = random_orthonormal(m, batch.dimension, seed=[seed, 405]).rows
    for _ in range(iters):
        rows = random_rows if method == "random" else rip_ab(model, m).rows
        y = batch.signals @ rows.T
        if sigma2 > 0.0:
            y = y + np.sqrt(sigma2) * rng.standard_normal(y.shape)
        model = map_em(y, rows, model, sigma2, kappa=1)
    return model


def supervised_gmm(batch: SignalBatch) -> GmmModel:
    """Moment-fit one component per label of a labeled batch."""
    if batch.labels is None:
        raise ValueError("supervised fitting requires a labeled batch")
    placeholder = _fallback_model(batch, int(batch.labels.max()))
    return m_step_update(batch.signals, batch.labels, placeholder)
