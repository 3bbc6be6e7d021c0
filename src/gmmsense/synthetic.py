"""Synthetic zero-mean Gaussian benchmarks and class-separability metrics.

Covariances follow a power-law spectrum rotated by a random orthogonal
basis; benchmark difficulty is controlled through the Bhattacharyya
distance between class pairs, generated by rejection sampling into target
distance buckets.
"""

from __future__ import annotations

import numpy as np

from ._linalg import SingularMatrixError, fix_column_signs, sym_floored_eigh, symmetrize
from .model import GaussianComponent, GmmModel

__all__ = [
    "bhattacharyya_distance",
    "synth_covariance",
    "synth_covariance_pair",
    "synth_model_pair",
]


def _floored_logdet_of(covariance: np.ndarray) -> float:
    try:
        vals, _ = sym_floored_eigh(covariance)
    except SingularMatrixError:
        raise SingularMatrixError("covariance is singular after flooring") from None
    return float(np.sum(np.log(vals)))


def bhattacharyya_distance(c0: GaussianComponent, c1: GaussianComponent) -> float:
    """Bhattacharyya distance between two zero-mean Gaussian components.

    Returns 0.5 * ln(|(S0 + S1)/2| / sqrt(|S0| |S1|)), the zero-mean form
    with the average covariance in the numerator. Symmetric in its
    arguments, zero iff the covariances coincide. Eigenvalues are floored
    at 1e-10 * lambda_max before any determinant; a covariance with no
    positive eigenvalue is rejected.
    """
    if c0.dimension != c1.dimension:
        raise ValueError("components must share the same dimension")
    scale = np.sqrt(max(c0.eigenvalues.max(initial=0.0), c1.eigenvalues.max(initial=0.0), 1.0))
    for c in (c0, c1):
        if np.abs(c.mean).max() > 1e-12 * scale:
            raise ValueError("bhattacharyya_distance expects zero-mean components")
    avg = 0.5 * (c0.covariance + c1.covariance)
    logdet_avg = _floored_logdet_of(avg)
    logdet0 = _floored_logdet_of(c0.covariance)
    logdet1 = _floored_logdet_of(c1.covariance)
    return 0.5 * (logdet_avg - 0.5 * (logdet0 + logdet1))


def power_law_eigenvalues(n: int, r: float, beta: float, omega: int) -> np.ndarray:
    """Spectrum lambda_i = r * 10^beta * i^(-omega), i = 1..n."""
    i = np.arange(1, n + 1, dtype=float)
    return r * 10.0**beta * i ** (-float(omega))


def synth_covariance(
    n: int, r: float, beta: float, omega: int, seed: int = 0
) -> GaussianComponent:
    """Zero-mean component with a seeded random basis and power-law spectrum.

    The basis is the sign-fixed left singular basis of an n x n standard
    Gaussian draw; eigenvalues are exactly r * 10^beta * i^(-omega).

    Parameters are validated against the benchmark ranges: r in (0, 1],
    beta in [4, 8], omega in {3, 4}, n >= 2.
    """
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if not 4.0 <= beta <= 8.0:
        raise ValueError(f"beta must lie in [4, 8], got {beta}")
    if omega not in (3, 4):
        raise ValueError(f"omega must be 3 or 4, got {omega}")
    rng = np.random.default_rng(seed)
    u, _, _ = np.linalg.svd(rng.standard_normal((n, n)))
    u = fix_column_signs(u)
    vals = power_law_eigenvalues(n, r, beta, omega)
    cov = symmetrize((u * vals) @ u.T)
    return GaussianComponent(
        mean=np.zeros(n), covariance=cov, basis=u, eigenvalues=vals, prior=1.0
    )


# Draws of synth_covariance_pair before it gives up on a bucket.
_MAX_ATTEMPTS = 10000


def synth_covariance_pair(
    n: int, bd_low: float, bd_high: float, seed: int = 0
) -> tuple[GaussianComponent, GaussianComponent, float]:
    """Rejection-sample a component pair whose distance lands in a bucket.

    Draws (r, beta, omega) independently for both components until
    bd_low <= BD < bd_high, up to _MAX_ATTEMPTS times; raises RuntimeError
    if the bucket is never hit.
    """
    if not bd_low < bd_high:
        raise ValueError("need bd_low < bd_high")
    for attempt in range(_MAX_ATTEMPTS):
        comps = []
        for side in (0, 1):
            rng = np.random.default_rng([seed, attempt, side])
            r = 1.0 - rng.random()  # uniform on (0, 1]
            beta = rng.uniform(4.0, 8.0)
            omega = int(rng.choice([3, 4]))
            comps.append(
                synth_covariance(n, r, beta, omega, seed=[seed, attempt, side, 1])
            )
        bd = bhattacharyya_distance(comps[0], comps[1])
        if bd_low <= bd < bd_high:
            return comps[0], comps[1], bd
    raise RuntimeError(
        f"no covariance pair with distance in [{bd_low}, {bd_high}) "
        f"after {_MAX_ATTEMPTS} attempts"
    )


def synth_model_pair(
    n: int, bd_low: float, bd_high: float, seed: int = 0
) -> tuple[GmmModel, float]:
    """Two equally likely classes with a target Bhattacharyya-distance bucket."""
    c0, c1, bd = synth_covariance_pair(n, bd_low, bd_high, seed)
    model = GmmModel(components=(c0.with_prior(0.5), c1.with_prior(0.5)))
    return model, bd
