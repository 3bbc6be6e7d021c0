"""Dense linear-algebra helpers shared across the package.

Everything here enforces the deterministic conventions the rest of the code
relies on: descending eigenvalue order, sign-fixed eigenvectors, and
eigenvalue flooring before inversions and determinants.
"""

from __future__ import annotations

import numpy as np

# Relative eigenvalue floor applied before inversions / determinants.
EIG_FLOOR_REL = 1e-10
# Most negative eigenvalue tolerated (relative to the largest) before a
# matrix is rejected as not positive semidefinite.
PSD_TOL_REL = 1e-8
# Eigenvalues at or below N * RANK_TOL_EPS * lambda_max are rounding noise
# of an N x N eigendecomposition (numpy's default matrix_rank tolerance) and
# are stored as exactly 0, so a stored spectrum reports its numerical rank.
# It sits far below EIG_FLOOR_REL because it decides what the spectrum is,
# while the floor only guards the conditioning of an inversion or
# determinant and never changes what a component stores.
RANK_TOL_EPS = np.finfo(float).eps
# Entries smaller than this are treated as zero when locating the first
# nonzero entry of a unit vector (unit vectors have max entry >= 1/sqrt(N)).
_SIGN_EPS = 1e-9


class NonSymmetricMatrixError(ValueError):
    """Raised when an operation requires a symmetric matrix."""

    def __init__(self, residual: float):
        self.residual = float(residual)
        super().__init__(
            f"matrix is not symmetric: relative residual {self.residual:.3e}"
        )


class NotPositiveSemidefiniteError(ValueError):
    """Raised when an eigenvalue is too negative to be rounding noise."""

    def __init__(self, min_eigenvalue: float, max_eigenvalue: float):
        self.min_eigenvalue = float(min_eigenvalue)
        self.max_eigenvalue = float(max_eigenvalue)
        super().__init__(
            f"matrix is not positive semidefinite: min eigenvalue "
            f"{self.min_eigenvalue:.3e} (max {self.max_eigenvalue:.3e})"
        )


class SingularMatrixError(ValueError):
    """Raised when a matrix is singular even after eigenvalue flooring."""


def symmetry_residual(a: np.ndarray) -> float:
    """Relative Frobenius asymmetry ||A - A^T||_F / (1 + ||A||_F)."""
    return float(
        np.linalg.norm(a - a.T) / (1.0 + np.linalg.norm(a))
    )


def require_symmetric(a: np.ndarray) -> None:
    """Reject a matrix whose relative asymmetry exceeds 1e-10."""
    res = symmetry_residual(a)
    if res > 1e-10:
        raise NonSymmetricMatrixError(res)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average away rounding asymmetry (works on stacked matrices)."""
    return 0.5 * (a + np.swapaxes(a, -1, -2))


def _leading_entries(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each column's first above-noise row and the sign that makes it positive.

    The row is v.shape[0] for a column with no entry above _SIGN_EPS; such
    a column keeps sign +1.
    """
    n = v.shape[0]
    mask = np.abs(v) > _SIGN_EPS
    first = np.where(mask.any(axis=0), mask.argmax(axis=0), n)
    lead = v[np.minimum(first, n - 1), np.arange(v.shape[1])]
    return first, np.where((first < n) & (lead < 0), -1.0, 1.0)


def fix_column_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip each column so its first entry above noise level is positive.

    The threshold skips rounding-noise entries; columns are assumed to have
    unit norm so a genuine nonzero entry is well above it.
    """
    v = np.asarray(vectors)
    return v * _leading_entries(v)[1]


def eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric eigendecomposition, eigenvalues descending, signs fixed.

    Within runs of exactly equal eigenvalues the eigenvectors are ordered
    by the position of their first above-noise entry (a stable sort), so
    signed permutation inputs come out as the identity.
    """
    vals, vecs = np.linalg.eigh(a)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1]
    first, signs = _leading_entries(vecs)
    order = np.lexsort((first, -vals))
    # C order: BLAS products downstream can round differently on another layout.
    return vals, np.ascontiguousarray(vecs[:, order]) * signs[order]


def clamp_psd_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Set rounding-level eigenvalues of an N x N PSD matrix to exactly 0.

    Every eigenvalue <= N * eps * max(vals), negative or positive, is
    rounding noise and comes back as 0; the others come back unchanged, so
    the count of positive eigenvalues is the numerical rank. Eigenvalues
    below -PSD_TOL_REL * max(vals) cannot be rounding noise and trigger a
    rejection instead.
    """
    vmax = max(float(vals.max(initial=0.0)), 0.0)
    vmin = float(vals.min())
    if vmin < -PSD_TOL_REL * vmax:
        raise NotPositiveSemidefiniteError(vmin, vmax)
    return np.where(vals > vals.shape[0] * RANK_TOL_EPS * vmax, vals, 0.0)


def floor_eigenvalues(vals: np.ndarray) -> np.ndarray:
    """Floor eigenvalues at EIG_FLOOR_REL * lambda_max; reject if nothing positive.

    Accepts stacked inputs (..., M); the floor is per matrix.
    """
    vmax = np.max(vals, axis=-1, keepdims=True)
    if np.any(vmax <= 0.0):
        raise SingularMatrixError("matrix has no positive eigenvalue")
    return np.maximum(vals, EIG_FLOOR_REL * vmax)


def sym_floored_eigh(a: np.ndarray):
    """Batched eigh of symmetric PSD matrices with floored eigenvalues.

    Returns (floored eigenvalues ascending, eigenvectors); accepts stacks
    with shape (..., M, M).
    """
    vals, vecs = np.linalg.eigh(symmetrize(a))
    return floor_eigenvalues(vals), vecs


def orthonormalize_rows(a: np.ndarray) -> np.ndarray:
    """Row-space-preserving orthonormalization with a deterministic sign fix.

    QR of A^T; the returned matrix has orthonormal rows spanning the row
    space of A. Requires full row rank.
    """
    a = np.asarray(a, dtype=float)
    q, r = np.linalg.qr(a.T)
    d = np.diag(r)
    if np.any(d == 0.0):
        raise SingularMatrixError("rows are linearly dependent")
    signs = np.sign(d)
    return (q * signs).T
