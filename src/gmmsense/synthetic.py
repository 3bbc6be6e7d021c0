"""Synthetic zero-mean Gaussian benchmarks and class-separability metrics.

Covariances follow a power-law spectrum rotated by a random orthogonal
basis; benchmark difficulty is controlled through the Bhattacharyya
distance between class pairs, generated by rejection sampling into target
distance buckets.
"""

from __future__ import annotations

import numpy as np

from ._linalg import SingularMatrixError, fix_column_signs, floor_eigenvalues, symmetrize
from .model import GaussianComponent, GmmModel

__all__ = [
    "bhattacharyya_distance",
    "synth_covariance",
    "synth_covariance_pair",
    "synth_model_pair",
]


def _floored_logdet_of(covariance: np.ndarray) -> float:
    try:
        vals = floor_eigenvalues(np.linalg.eigvalsh(symmetrize(covariance)))
    except SingularMatrixError:
        raise SingularMatrixError("covariance is singular after flooring") from None
    return float(np.sum(np.log(vals)))


def _covariance_distance(s0: np.ndarray, s1: np.ndarray) -> float:
    logdet_avg = _floored_logdet_of(0.5 * (s0 + s1))
    return 0.5 * (logdet_avg - 0.5 * (_floored_logdet_of(s0) + _floored_logdet_of(s1)))


def bhattacharyya_distance(c0: GaussianComponent, c1: GaussianComponent) -> float:
    """Bhattacharyya distance between two zero-mean Gaussian components.

    Returns 0.5 * ln(|(S0 + S1)/2| / sqrt(|S0| |S1|)), the zero-mean form
    with the average covariance in the numerator. Symmetric in its
    arguments, zero iff the covariances coincide. Each log-determinant is
    the sum of log eigenvalues (eigenvalues only, no eigenvectors), floored
    at 1e-10 * lambda_max first; a covariance with no positive eigenvalue
    is rejected.
    """
    if c0.dimension != c1.dimension:
        raise ValueError("components must share the same dimension")
    scale = np.sqrt(max(c0.eigenvalues.max(initial=0.0), c1.eigenvalues.max(initial=0.0), 1.0))
    for c in (c0, c1):
        if np.abs(c.mean).max() > 1e-12 * scale:
            raise ValueError("bhattacharyya_distance expects zero-mean components")
    return _covariance_distance(c0.covariance, c1.covariance)


def power_law_eigenvalues(n: int, r: float, beta: float, omega: int) -> np.ndarray:
    """Spectrum lambda_i = r * 10^beta * i^(-omega), i = 1..n."""
    i = np.arange(1, n + 1, dtype=float)
    return r * 10.0**beta * i ** (-float(omega))


def _check_parameters(n: int, r: float, beta: float, omega: int) -> None:
    if n < 2:
        raise ValueError("dimension must be >= 2")
    if not 0.0 < r <= 1.0:
        raise ValueError(f"r must lie in (0, 1], got {r}")
    if not 4.0 <= beta <= 8.0:
        raise ValueError(f"beta must lie in [4, 8], got {beta}")
    if omega not in (3, 4):
        raise ValueError(f"omega must be 3 or 4, got {omega}")


def _draw_covariance(vals: np.ndarray, seed) -> tuple[np.ndarray, np.ndarray]:
    """Seeded sign-fixed random basis and the covariance it gives vals."""
    n = vals.shape[0]
    rng = np.random.default_rng(seed)
    u, _, _ = np.linalg.svd(rng.standard_normal((n, n)))
    u = fix_column_signs(u)
    return u, symmetrize((u * vals) @ u.T)


def _component(basis: np.ndarray, vals: np.ndarray, cov: np.ndarray) -> GaussianComponent:
    return GaussianComponent(
        mean=np.zeros(vals.shape[0]), covariance=cov, basis=basis, eigenvalues=vals, prior=1.0
    )


def synth_covariance(
    n: int, r: float, beta: float, omega: int, seed: int = 0
) -> GaussianComponent:
    """Zero-mean component with a seeded random basis and power-law spectrum.

    The basis is the sign-fixed left singular basis of an n x n standard
    Gaussian draw; eigenvalues are exactly r * 10^beta * i^(-omega).

    Parameters are validated against the benchmark ranges: r in (0, 1],
    beta in [4, 8], omega in {3, 4}, n >= 2.
    """
    _check_parameters(n, r, beta, omega)
    vals = power_law_eigenvalues(n, r, beta, omega)
    u, cov = _draw_covariance(vals, seed)
    return _component(u, vals, cov)


# Draws of synth_covariance_pair before it gives up on a bucket.
_MAX_ATTEMPTS = 10000
# Nats added on each side of a draw's spectral distance interval before it
# is tested against the bucket. It covers the rounding of the dense
# covariances and of their eigenvalues; at n = 4 to 128 the computed
# distance has not been seen outside the exact interval at all.
_SCREEN_SLACK = 1e-3
# A spectrum is screened only if lambda_min > this * lambda_max, so the
# eigenvalue floor (1e-10 * lambda_max) binds neither on a covariance nor on
# their average, and the distance has no floored term the bounds leave out.
_SCREEN_MIN_RATIO = 1e-9


def _distance_interval(a: np.ndarray, b: np.ndarray) -> tuple[float, float] | None:
    """Bounds on the distance between covariances of spectra a and b.

    a and b are descending. By Fiedler's inequality (Proc. AMS 30, 1971),
    prod(a_i + b_i) <= det(S0 + S1) <= prod(a_i + b_(n+1-i)) over every
    pair of bases, so the distance lies in the returned (lo, hi). None when
    a spectrum is too ill-conditioned for the floor to stay out of it.
    """
    if a[-1] <= _SCREEN_MIN_RATIO * a[0] or b[-1] <= _SCREEN_MIN_RATIO * b[0]:
        return None
    half_logdets = 0.5 * (np.sum(np.log(a)) + np.sum(np.log(b)))
    lo = 0.5 * (np.sum(np.log(0.5 * (a + b))) - half_logdets)
    hi = 0.5 * (np.sum(np.log(0.5 * (a + b[::-1]))) - half_logdets)
    return float(lo), float(hi)


def _ruled_out(a: np.ndarray, b: np.ndarray, bd_low: float, bd_high: float) -> bool:
    """True if no pair of bases can put spectra a and b in [bd_low, bd_high)."""
    bounds = _distance_interval(a, b)
    if bounds is None:
        return False
    lo, hi = bounds
    return hi + _SCREEN_SLACK < bd_low or lo - _SCREEN_SLACK >= bd_high


def synth_covariance_pair(
    n: int, bd_low: float, bd_high: float, seed: int = 0
) -> tuple[GaussianComponent, GaussianComponent, float]:
    """Rejection-sample a component pair whose distance lands in a bucket.

    Draws (r, beta, omega) independently for both components until
    bd_low <= BD < bd_high, up to _MAX_ATTEMPTS times; raises RuntimeError
    if the bucket is never hit. Each draw has its own random streams, keyed
    by seed, attempt and side, so skipping a draw changes no other. A draw
    is skipped before its bases are drawn when its two spectra alone keep
    the distance out of the bucket: the bounds of _distance_interval,
    widened by _SCREEN_SLACK (1e-3 nats) on each side, miss it. Spectra
    with lambda_min <= 1e-9 * lambda_max, where the eigenvalue floor may
    bind, are never skipped. A draw that passes is measured as
    bhattacharyya_distance measures it, from eigenvalues only, and only the
    accepted pair is built into components.
    """
    if not bd_low < bd_high:
        raise ValueError("need bd_low < bd_high")
    for attempt in range(_MAX_ATTEMPTS):
        spectra = []
        for side in (0, 1):
            rng = np.random.default_rng([seed, attempt, side])
            r = 1.0 - rng.random()  # uniform on (0, 1]
            beta = rng.uniform(4.0, 8.0)
            omega = int(rng.choice([3, 4]))
            _check_parameters(n, r, beta, omega)
            spectra.append(power_law_eigenvalues(n, r, beta, omega))
        if _ruled_out(spectra[0], spectra[1], bd_low, bd_high):
            continue
        draws = [
            _draw_covariance(vals, [seed, attempt, side, 1])
            for side, vals in enumerate(spectra)
        ]
        bd = _covariance_distance(draws[0][1], draws[1][1])
        if bd_low <= bd < bd_high:
            c0, c1 = (_component(u, vals, cov) for (u, cov), vals in zip(draws, spectra))
            return c0, c1, bd
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
