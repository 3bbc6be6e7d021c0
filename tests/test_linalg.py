import numpy as np
import pytest

from helpers import random_spd
from gmmsense._linalg import (
    NonSymmetricMatrixError,
    SingularMatrixError,
    eigh_descending,
    fix_column_signs,
    floor_eigenvalues,
    orthonormalize_rows,
    principal_angles,
    svd_descending_signed,
    require_symmetric,
)


def test_eigh_descending_order_and_signs():
    a = random_spd(8, seed=1)
    vals, vecs = eigh_descending(a)
    assert np.all(np.diff(vals) <= 0)
    recon = (vecs * vals) @ vecs.T
    assert np.linalg.norm(recon - a) <= 1e-12 * np.linalg.norm(a) * 100
    for j in range(8):
        nz = np.flatnonzero(np.abs(vecs[:, j]) > 1e-9)
        assert vecs[nz[0], j] > 0


def test_fix_column_signs_idempotent():
    v = np.linalg.qr(np.random.default_rng(0).standard_normal((6, 6)))[0]
    fixed = fix_column_signs(v)
    assert np.array_equal(fix_column_signs(fixed), fixed)


def test_require_symmetric_rejects():
    a = np.eye(3)
    a[0, 1] = 1e-3
    with pytest.raises(NonSymmetricMatrixError) as err:
        require_symmetric(a)
    assert err.value.residual > 0


def test_floor_eigenvalues_relative():
    vals = np.array([1.0, 1e-15, 0.0, -1e-16])
    floored = floor_eigenvalues(vals)
    assert floored[0] == 1.0
    assert np.all(floored[1:] == 1e-10)


def test_floor_eigenvalues_rejects_nonpositive():
    with pytest.raises(SingularMatrixError):
        floor_eigenvalues(np.zeros(3))


def test_orthonormalize_rows_preserves_row_space():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((3, 7))
    q = orthonormalize_rows(a)
    assert np.abs(q @ q.T - np.eye(3)).max() < 1e-12
    # row space preserved: original rows lie in span(q)
    proj = a - (a @ q.T) @ q
    assert np.abs(proj).max() < 1e-12


def test_orthonormalize_rows_rejects_dependent_rows():
    a = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        orthonormalize_rows(a)


def test_svd_descending_signed_reconstructs():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6))
    u, s, vh = svd_descending_signed(a)
    assert np.all(np.diff(s) <= 0)
    assert np.abs((u * s) @ vh - a).max() < 1e-12
    for j in range(6):
        nz = np.flatnonzero(np.abs(u[:, j]) > 1e-9)
        assert u[nz[0], j] > 0


def test_principal_angles_identical_and_orthogonal():
    rows = orthonormalize_rows(np.random.default_rng(6).standard_normal((2, 6)))
    assert principal_angles(rows, rows).max() < 1e-12
    # two directions from the orthogonal complement of span(rows)
    u, s, _ = np.linalg.svd(np.eye(6) - rows.T @ rows)
    q = u[:, :2].T
    assert principal_angles(rows, q).min() > np.pi / 2 - 1e-8
