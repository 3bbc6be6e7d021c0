"""Non-adaptive (batch) sensing matrix constructions.

All designs return matrices with orthonormal rows, the row-orthogonality
condition the mixture model reduces the restricted-isometry objective to.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import orthonormalize_rows, svd_descending_signed
from .model import GaussianComponent, GmmModel, _readonly

__all__ = [
    "SensingMatrix",
    "as_rows",
    "require_orthonormal_rows",
    "random_orthonormal",
    "eigen_sensing",
    "average_basis",
    "procrustes_rotation",
    "rip_ab",
]


def require_orthonormal_rows(rows: np.ndarray, what: str) -> None:
    """Reject rows whose Gram matrix is further than 1e-8 from identity."""
    resid = np.abs(rows @ rows.T - np.eye(rows.shape[0])).max()
    if resid > 1e-8:
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


def average_basis(model: GmmModel) -> np.ndarray:
    """Prior-weighted average of the component bases."""
    return np.einsum("g,gij->ij", model.priors, model.basis_stack)


def procrustes_rotation(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Orthogonal X minimizing ||A X - C||_F subject to X X^T = I.

    Classic orthogonal Procrustes solution: with A^T C = U S W^T, the
    minimizer is X = U W^T.
    """
    u, _, wt = svd_descending_signed(np.asarray(a).T @ np.asarray(c))
    return u @ wt


def rip_ab(model: GmmModel, m: int) -> SensingMatrix:
    """Batch design aligning the prior-weighted average basis with identity.

    The orthogonal X closest to the average basis E in Frobenius norm is
    the Procrustes rotation X = U W^T of the SVD E = U S W^T (descending
    singular values, deterministic signs); the design is the first m rows
    of X^T = W U^T.
    For a single-component model this reduces to eigen_sensing of that
    component, since W U^T = E^T when E is orthogonal.
    """
    n = model.dimension
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= {n}, got m={m}")
    rotation = procrustes_rotation(np.eye(n), average_basis(model))
    return SensingMatrix(rows=rotation.T[:m])
