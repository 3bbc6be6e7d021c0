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
    "sample_signals",
    "m_step_update",
]


def _readonly(a: np.ndarray, dtype=float) -> np.ndarray:
    """a as a read-only array of dtype, shared where that is safe, else copied.

    a itself comes back when it is a read-only ndarray of dtype that no
    writable array can reach: it has no base (it owns its data), or its
    base is a read-only ndarray (a view of a frozen owner). Anything else,
    a writable array, a read-only view of a writable array, another dtype,
    a list or an array over a foreign buffer, is copied and the copy
    frozen. Records call this on every array they keep, so arrays the
    library builds and freezes once are shared by every record that holds
    them. Re-enabling writes on an array already handed to a record (or
    writing through a writable view made before it was frozen) changes
    that record behind its checks, as it would the model's kept design
    rows.
    """
    if (
        type(a) is np.ndarray
        and not a.flags.writeable
        and a.dtype == dtype
        and (a.base is None or (type(a.base) is np.ndarray and not a.base.flags.writeable))
    ):
        return a
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _freeze(*arrays: np.ndarray) -> None:
    """Make arrays the caller has just built read-only, so records share them."""
    for a in arrays:
        a.setflags(write=False)


def _require_finite(a: np.ndarray, what: str) -> None:
    """ValueError naming the first signal whose entry of a is NaN or infinite."""
    if not np.isfinite(a).all():
        bad = ~np.isfinite(a.reshape(a.shape[0], -1)).all(axis=1)
        raise ValueError(f"{what} must be finite, but signal {int(bad.argmax())} is not")


def _check_sigma2(sigma2: float, what: str = "sigma2") -> None:
    """ValueError unless the noise variance sigma2 is finite and >= 0."""
    if not 0.0 <= sigma2 < np.inf:
        raise ValueError(f"{what} must be finite and >= 0, got {sigma2}")


_ENERGY_CHUNK = 2048  # signals per chunk of _mean_energy's squares


def _mean_energy(batch: SignalBatch) -> float:
    """Mean per-sample energy of a batch: mean over signals of ||x||^2 / N.

    The squares are formed _ENERGY_CHUNK signals at a time; a signal's sum
    does not depend on its chunk, so the result is the whole batch's bitwise.
    """
    x = batch.signals
    sums = np.empty(x.shape[0])
    for start in range(0, x.shape[0], _ENERGY_CHUNK):
        stop = start + _ENERGY_CHUNK
        np.sum(np.square(x[start:stop]), axis=1, out=sums[start:stop])
    return float(np.mean(sums) / batch.dimension)


def _spd_eigendecompose(covariance: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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

    Each array is kept read-only; a frozen array is shared, not copied
    (_readonly states when), so with_prior reuses the arrays of the
    component it is built from. Re-enabling writes on an array a component
    holds breaks that component.
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
        basis, eigenvalues = _spd_eigendecompose(covariance)
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
    def _design_memo(self) -> dict:
        """Seed-free designs of this model, read-only, filled by
        adaptive.design_classification_block (empty-history blocks, keyed
        by b, sigma2 and opts), protocol._step1_rows (rip_ab rows, keyed
        by ("rip_ab", k)) and protocol._step2_design (the step-2 design
        that extends such rows, keyed by "step2", step1, their key,
        sigma2, step2, class and M). It lives and dies with the model."""
        return {}


@dataclass(frozen=True)
class SignalBatch:
    """A batch of row signals with optional 1-based labels and metadata.

    dc_offsets holds per-signal means removed at ingestion (image patches);
    provenance records how the batch was produced. The arrays are kept
    read-only and shared when frozen (_readonly states when):
    sample_signals and the CLI's image ingestion freeze what they build,
    so their batches, and batches of row slices of them, copy nothing. Re-enabling writes on an array a batch holds breaks
    that batch.
    """

    signals: np.ndarray
    labels: np.ndarray | None = None
    provenance: dict = field(default_factory=dict)
    dc_offsets: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "signals", _readonly(self.signals))
        if self.signals.ndim != 2 or 0 in self.signals.shape:
            raise ValueError(f"signals must be a nonempty (S, N) array, got {self.signals.shape}")
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


# Stream tags of sample_signals, first in each seed list: numpy's seed
# sequence ignores trailing zeros, so [seed, 0] would be the stream of
# default_rng(seed) and of [seed, 0, 0].
_TAG_CLASSES = 505
_TAG_SHAPES = 606


def sample_signals(model: GmmModel, n_signals: int, seed: int = 0) -> SignalBatch:
    """Draw labeled clean signals from the mixture.

    Two streams per call, both derived from seed: the class stream
    [_TAG_CLASSES, seed] gives one uniform u_i per signal, and signal i
    takes the first component whose cumulative prior (normalized to end at
    1) exceeds u_i, so a zero-prior component is never drawn; the shape
    stream [_TAG_SHAPES, seed] gives one (n_signals, N) standard-normal
    draw z, and signal i is mean_g + basis_g @ (sqrt(eigenvalues_g) * z_i),
    one matrix-vector product per signal. Signal i and its label therefore
    depend only on (seed, i, model): a longer batch starts with the same
    signals, bitwise. The signals are noise-free; noise is added at sensing
    time.
    """
    if n_signals < 1:
        raise ValueError("n_signals must be >= 1")
    cdf = np.cumsum(model.priors)
    cdf /= cdf[-1]
    u = np.random.default_rng([_TAG_CLASSES, seed]).random(n_signals)
    classes = np.searchsorted(cdf, u, side="right")
    z = np.random.default_rng([_TAG_SHAPES, seed]).standard_normal(
        (n_signals, model.dimension)
    )
    signals = np.empty_like(z)
    for g, comp in enumerate(model.components):
        rows = np.flatnonzero(classes == g)
        # A stack of matrix-vector products, not one matrix product: BLAS
        # rounds a row of a matrix product differently with the row count,
        # which would break the prefix property.
        shapes = (z[rows] * np.sqrt(comp.eigenvalues))[:, :, None]
        signals[rows] = comp.mean + (comp.basis @ shapes)[:, :, 0]
    labels = classes + 1
    _freeze(signals, labels)
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
