"""Gaussian mixture signal model and its empirical updates.

Signals are modeled as draws from one of G Gaussian components; each
component carries its PCA factorization (orthonormal basis, descending
eigenvalues) alongside the raw covariance. Component indices are 1-based
everywhere in the public API.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import (
    NotPositiveSemidefiniteError,
    clamp_psd_eigenvalues,
    eigh_descending,
    require_symmetric,
    symmetrize,
)

__all__ = [
    "GaussianComponent",
    "GmmModel",
    "SignalBatch",
    "spd_eigendecompose",
    "sample_signals",
    "m_step_update",
]


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _require_finite(a: np.ndarray, what: str) -> None:
    """ValueError naming the first signal whose entry of a is NaN or infinite."""
    bad = ~np.isfinite(a)
    if bad.any():
        row = int(np.flatnonzero(bad.reshape(a.shape[0], -1).any(axis=1))[0])
        raise ValueError(f"{what} must be finite, but signal {row} is not")


def _check_sigma2(sigma2: float, what: str = "sigma2") -> None:
    """ValueError unless the noise variance sigma2 is finite and >= 0."""
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError(f"{what} must be finite and >= 0, got {sigma2}")


def _mean_energy(batch: SignalBatch) -> float:
    """Mean per-sample energy of a batch: mean over signals of ||x||^2 / N."""
    return float(np.mean(np.sum(batch.signals**2, axis=1)) / batch.dimension)


def spd_eigendecompose(covariance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric PSD matrix into (basis, eigenvalues).

    The basis columns are orthonormal eigenvectors in descending eigenvalue
    order, each signed so its first above-noise entry is positive.
    Eigenvalues <= N * eps * lambda_max (rounding noise, on either side of
    zero) are returned as exactly 0, so the count of positive eigenvalues
    is the numerical rank; larger ones are returned unchanged. Anything
    more negative than -1e-8 * lambda_max raises
    NotPositiveSemidefiniteError.

    Parameters
    ----------
    covariance : (N, N) array, symmetric within 1e-10 relative.

    Returns
    -------
    basis : (N, N) array with orthonormal columns.
    eigenvalues : (N,) array, nonincreasing, >= 0.
    """
    a = np.asarray(covariance, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    require_symmetric(a)
    vals, vecs = eigh_descending(symmetrize(a))
    vals = clamp_psd_eigenvalues(vals)
    return vecs, vals


@dataclass(frozen=True)
class GaussianComponent:
    """One mixture component: mean, SPD covariance, and its PCA factors.

    Invariants (checked on construction):
      * covariance ~= basis @ diag(eigenvalues) @ basis.T
      * basis has orthonormal columns
      * eigenvalues nonincreasing and nonnegative
      * 0 <= prior <= 1
    """

    mean: np.ndarray
    covariance: np.ndarray
    basis: np.ndarray
    eigenvalues: np.ndarray
    prior: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mean", _readonly(self.mean))
        object.__setattr__(self, "covariance", _readonly(self.covariance))
        object.__setattr__(self, "basis", _readonly(self.basis))
        object.__setattr__(self, "eigenvalues", _readonly(self.eigenvalues))
        object.__setattr__(self, "prior", float(self.prior))
        n = self.mean.shape[0]
        if self.covariance.shape != (n, n) or self.basis.shape != (n, n):
            raise ValueError("mean, covariance and basis dimensions disagree")
        if self.eigenvalues.shape != (n,):
            raise ValueError("eigenvalues length must match the dimension")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError(f"prior must lie in [0, 1], got {self.prior}")
        if np.any(np.diff(self.eigenvalues) > 0.0):
            raise ValueError("eigenvalues must be nonincreasing")
        if np.any(self.eigenvalues < 0.0):
            raise ValueError("eigenvalues must be nonnegative")
        ortho = np.abs(self.basis.T @ self.basis - np.eye(n)).max()
        if ortho > 1e-8:
            raise ValueError(f"basis columns not orthonormal (residual {ortho:.3e})")
        recon = self.basis @ (self.eigenvalues[:, None] * self.basis.T)
        resid = np.linalg.norm(self.covariance - recon)
        if resid > 1e-8 * (1.0 + np.linalg.norm(self.covariance)):
            raise ValueError(
                f"covariance does not match its factorization (residual {resid:.3e})"
            )

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]

    @classmethod
    def from_moments(
        cls, mean: np.ndarray, covariance: np.ndarray, prior: float = 1.0
    ) -> "GaussianComponent":
        """Build a component from raw moments, running the PCA internally."""
        basis, eigenvalues = spd_eigendecompose(covariance)
        return cls(
            mean=np.asarray(mean, dtype=float),
            covariance=symmetrize(np.asarray(covariance, dtype=float)),
            basis=basis,
            eigenvalues=eigenvalues,
            prior=prior,
        )

    def with_prior(self, prior: float) -> "GaussianComponent":
        return GaussianComponent(
            mean=self.mean,
            covariance=self.covariance,
            basis=self.basis,
            eigenvalues=self.eigenvalues,
            prior=prior,
        )


@dataclass(frozen=True)
class GmmModel:
    """Ordered set of Gaussian components sharing one dimension.

    Component priors must sum to 1 within 1e-12. The concatenation of the
    component bases is the structured dictionary the signals are
    block-sparse in; it is never materialized, components are used directly.
    """

    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if len(comps) < 1:
            raise ValueError("a model needs at least one component")
        n = comps[0].dimension
        if any(c.dimension != n for c in comps):
            raise ValueError("all components must share the same dimension")
        total = float(sum(c.prior for c in comps))
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"priors must sum to 1, got {total!r}")

    @property
    def dimension(self) -> int:
        return self.components[0].dimension

    @property
    def n_components(self) -> int:
        return len(self.components)

    def component(self, index: int) -> GaussianComponent:
        """Return the component with 1-based index."""
        if not 1 <= index <= self.n_components:
            raise ValueError(
                f"component index {index} outside [1..{self.n_components}]"
            )
        return self.components[index - 1]

    @cached_property
    def priors(self) -> np.ndarray:
        return _readonly([c.prior for c in self.components])

    @cached_property
    def mean_stack(self) -> np.ndarray:
        return _readonly([c.mean for c in self.components])

    @cached_property
    def covariance_stack(self) -> np.ndarray:
        return _readonly([c.covariance for c in self.components])

    @cached_property
    def basis_stack(self) -> np.ndarray:
        return _readonly([c.basis for c in self.components])

    @cached_property
    def _step1_memo(self) -> dict:
        """Seed-free step-1 designs of this model, filled by
        protocol._step1_rows: read-only k x N rows keyed by method and k,
        plus sigma2 and the ascent options for ida. It lives and dies with
        the model."""
        return {}


@dataclass(frozen=True)
class SignalBatch:
    """A batch of row signals with optional 1-based labels and metadata.

    dc_offsets holds per-signal means removed at ingestion (image patches);
    provenance records how the batch was produced.
    """

    signals: np.ndarray
    labels: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)
    dc_offsets: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "signals", _readonly(self.signals))
        if self.signals.ndim != 2 or self.signals.shape[0] < 1:
            raise ValueError("signals must be a nonempty (S, N) array")
        _require_finite(self.signals, "signals")
        if self.labels is not None:
            labels = _readonly(self.labels, dtype=int)
            if labels.shape != (self.signals.shape[0],):
                raise ValueError("labels length must match the signal count")
            if np.any(labels < 1):
                raise ValueError("labels are 1-based and must be >= 1")
            object.__setattr__(self, "labels", labels)
        if self.dc_offsets is not None:
            dc = _readonly(self.dc_offsets)
            if dc.shape != (self.signals.shape[0],):
                raise ValueError("dc_offsets length must match the signal count")
            _require_finite(dc, "dc_offsets")
            object.__setattr__(self, "dc_offsets", dc)

    @property
    def n_signals(self) -> int:
        return self.signals.shape[0]

    @property
    def dimension(self) -> int:
        return self.signals.shape[1]


def sample_signals(model: GmmModel, n_signals: int, seed: int = 0) -> SignalBatch:
    """Draw labeled clean signals from the mixture.

    Each signal picks its component with the prior probabilities, then draws
    x ~ N(mean_g, cov_g). Per-signal generators are derived from (seed,
    index), so the batch is reproducible and independent of evaluation
    order. The signals are noise-free; noise is added at sensing time.
    """
    if n_signals < 1:
        raise ValueError("n_signals must be >= 1")
    n = model.dimension
    priors = model.priors
    sqrt_vals = [np.sqrt(c.eigenvalues) for c in model.components]
    signals = np.empty((n_signals, n))
    labels = np.empty(n_signals, dtype=int)
    for i in range(n_signals):
        rng = np.random.default_rng([seed, i])
        g = int(rng.choice(model.n_components, p=priors))
        comp = model.components[g]
        z = rng.standard_normal(n)
        signals[i] = comp.mean + comp.basis @ (sqrt_vals[g] * z)
        labels[i] = g + 1
    return SignalBatch(
        signals=signals,
        labels=labels,
        provenance={"kind": "synthetic", "seed": seed},
    )


def m_step_update(
    signals: np.ndarray, labels: np.ndarray, previous: GmmModel
) -> GmmModel:
    """Refit component moments from hard-assigned signals.

    Per class: empirical mean and (biased, 1/|S_g|) covariance of its
    signals, with the PCA factors refreshed. Classes with fewer than two
    assigned signals keep their previous mean/covariance/basis/eigenvalues.
    Every prior becomes |S_g| / S. Rerunning with identical assignments
    reproduces identical parameters bitwise.
    """
    x = np.asarray(signals, dtype=float)
    lab = np.asarray(labels, dtype=int)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("empty assignment: need at least one signal")
    if lab.shape != (x.shape[0],):
        raise ValueError("labels length must match the signal count")
    if x.shape[1] != previous.dimension:
        raise ValueError("signal dimension does not match the model")
    total = x.shape[0]
    updated = []
    for g, comp in enumerate(previous.components, start=1):
        members = x[lab == g]
        prior = members.shape[0] / total
        if members.shape[0] < 2:
            updated.append(comp.with_prior(prior))
            continue
        mean = members.mean(axis=0)
        centered = members - mean
        cov = symmetrize(centered.T @ centered / members.shape[0])
        try:
            updated.append(GaussianComponent.from_moments(mean, cov, prior))
        except NotPositiveSemidefiniteError:
            # Empirical second moments are PSD by construction; reaching this
            # means catastrophic cancellation, keep the previous parameters.
            updated.append(comp.with_prior(prior))
    return GmmModel(components=tuple(updated))
