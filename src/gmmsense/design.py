"""Non-adaptive (batch) sensing matrix constructions.

All designs return matrices with orthonormal rows, the row-orthogonality
condition the mixture model reduces the restricted-isometry objective to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import orthonormalize_rows
from .model import GaussianComponent, GmmModel, _readonly

__all__ = [
    "SensingMatrix",
    "as_rows",
    "require_orthonormal_rows",
    "random_orthonormal",
    "eigen_sensing",
    "rip_ab",
]


def require_orthonormal_rows(rows: np.ndarray, what: str) -> None:
    """Reject non-finite rows, rows with an entry above 2 in magnitude
    (before their Gram, which it may overflow), and rows whose Gram matrix
    is not within 1e-8 of identity (so a NaN residual fails as well)."""
    if not np.isfinite(rows).all():
        raise ValueError(f"{what} rows must be finite")
    if np.abs(rows).max(initial=0.0) > 2.0:
        raise ValueError(f"{what} rows are not orthonormal (an entry exceeds 2 in magnitude)")
    resid = np.abs(rows @ rows.T - np.eye(rows.shape[0])).max()
    if not resid <= 1e-8:
        raise ValueError(f"{what} rows are not orthonormal (residual {resid:.3e})")


@dataclass(frozen=True)
class SensingMatrix:
    """M x N sensing matrix with orthonormal rows."""

    rows: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", _readonly(self.rows))
        if self.rows.ndim != 2:
            raise ValueError("rows must be a 2-D array")
        m, n = self.rows.shape
        if m > n:
            raise ValueError(f"more rows than columns ({m} > {n})")
        require_orthonormal_rows(self.rows, "sensing")


def as_rows(sensing) -> np.ndarray:
    """The rows of a SensingMatrix, or a 2-D array-like as float rows."""
    rows = sensing.rows if isinstance(sensing, SensingMatrix) else np.asarray(sensing, dtype=float)
    if rows.ndim != 2:
        raise ValueError("sensing rows must be a 2-D array")
    return rows


def random_orthonormal(m: int, n: int, seed=0) -> SensingMatrix:
    """Orthonormalized rows of an M x N standard Gaussian draw.

    Row-space preserving and deterministic given the seed.
    """
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    rng = np.random.default_rng(seed)
    rows = orthonormalize_rows(rng.standard_normal((m, n)))
    return SensingMatrix(rows=rows)


def eigen_sensing(component: GaussianComponent, m: int) -> SensingMatrix:
    """Transposed first m eigenvectors of a component covariance.

    The minimum-MSE non-adaptive design for a signal known to come from
    this component: the measurement matrix times the basis is [I_m 0].
    """
    n = component.dimension
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got m={m}")
    return SensingMatrix(rows=component.basis[:, :m].T)


def rip_ab(model: GmmModel, m: int) -> SensingMatrix:
    """Batch design aligning the prior-weighted average basis with identity.

    The orthogonal X closest to the average basis E = sum_g pi_g V_g in
    Frobenius norm is the Procrustes rotation X = U W^T of the SVD
    E = U S W^T; flipping a column of U flips the matching row of W^T, so
    X does not depend on the signs the SVD picks. The design is the first
    m rows of X^T = W U^T.
    For a single-component model this reduces to eigen_sensing of that
    component, since W U^T = E^T when E is orthogonal.
    """
    n = model.dimension
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got m={m}")
    average = np.einsum("g,gij->ij", model.priors, model.basis_stack)
    u, _, wt = np.linalg.svd(average)
    return SensingMatrix(rows=(u @ wt).T[:m])
