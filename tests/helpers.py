"""Model, matrix and image builders shared by the test modules."""

import numpy as np

from gmmsense.model import GaussianComponent, GmmModel


def random_spd(n: int, seed: int, cond: float = 100.0) -> np.ndarray:
    """Well-conditioned random SPD matrix with eigenvalues in [1/cond, 1]."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vals = np.geomspace(1.0, 1.0 / cond, n)
    a = (q * vals) @ q.T
    return 0.5 * (a + a.T)


def random_model(n: int, g: int, seed: int, cond: float = 100.0) -> GmmModel:
    """Random zero-mean mixture with Dirichlet-ish priors."""
    rng = np.random.default_rng(seed)
    raw = rng.random(g) + 0.2
    priors = raw / raw.sum()
    priors[-1] = 1.0 - priors[:-1].sum()
    comps = tuple(
        GaussianComponent.from_moments(
            np.zeros(n), random_spd(n, seed + 7 * i + 1, cond), priors[i]
        )
        for i in range(g)
    )
    return GmmModel(components=comps)


def lowrank_component(
    seed: int, n: int, rank: int, scale: float = 1e4, prior: float = 0.5
) -> GaussianComponent:
    """Zero-mean component with a power-law spectrum truncated at `rank`."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    vals = np.zeros(n)
    i = np.arange(1, rank + 1, dtype=float)
    vals[:rank] = scale * i**-3.0
    cov = (q * vals) @ q.T
    return GaussianComponent.from_moments(np.zeros(n), 0.5 * (cov + cov.T), prior)


def make_image(seed: int, size: int = 96) -> np.ndarray:
    """Procedural grayscale image: polygonal regions, oriented texture, edges."""
    rng = np.random.default_rng([9000, seed])
    yy, xx = np.mgrid[0:size, 0:size].astype(float) / size
    levels = rng.uniform(30, 225, size=10)
    region = np.zeros((size, size), dtype=int)
    for _ in range(6):
        theta = rng.uniform(0, np.pi)
        off = rng.uniform(0.15, 0.85)
        side = np.cos(theta) * xx + np.sin(theta) * yy > off
        region = 2 * region + side.astype(int)
    region = region % len(levels)
    img = levels[region]
    for _ in range(4):
        theta = rng.uniform(0, np.pi)
        freq = rng.uniform(6, 18)
        amp = rng.uniform(10, 30)
        phase = rng.uniform(0, 2 * np.pi)
        t = np.cos(theta) * xx + np.sin(theta) * yy
        pick = region == rng.integers(0, len(levels))
        img = img + amp * np.sin(2 * np.pi * freq * t + phase) * pick
    img += 20.0 * ((xx - 0.5) * rng.standard_normal() + (yy - 0.5) * rng.standard_normal())
    img += 1.5 * rng.standard_normal((size, size))
    return np.clip(img, 0, 255)
