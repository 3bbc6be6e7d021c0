import numpy as np
import pytest

from helpers import principal_angles, random_spd
from gmmsense._linalg import (
    NonSymmetricMatrixError,
    SingularMatrixError,
    eigh_descending,
    fix_column_signs,
    floor_eigenvalues,
    orthonormalize_rows,
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


def test_principal_angles_identical_and_orthogonal():
    rows = orthonormalize_rows(np.random.default_rng(6).standard_normal((2, 6)))
    assert principal_angles(rows, rows).max() < 1e-12
    # two directions from the orthogonal complement of span(rows)
    u, s, _ = np.linalg.svd(np.eye(6) - rows.T @ rows)
    q = u[:, :2].T
    assert principal_angles(rows, q).min() > np.pi / 2 - 1e-8


# Reference column-loop versions of the sign and tie conventions, as they
# were before the vectorized implementation; the library must match them
# bitwise.
def _loop_fix_column_signs(v):
    signs = np.ones(v.shape[1])
    for j in range(v.shape[1]):
        nz = np.flatnonzero(np.abs(v[:, j]) > 1e-9)
        if nz.size and v[nz[0], j] < 0:
            signs[j] = -1.0
    return v * signs


def _loop_eigh_descending(a):
    vals, vecs = np.linalg.eigh(a)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    start, n = 0, vals.shape[0]
    while start < n:
        end = start
        while end + 1 < n and vals[end + 1] == vals[start]:
            end += 1
        if end > start:
            block = vecs[:, start : end + 1]
            keys = []
            for j in range(block.shape[1]):
                nz = np.flatnonzero(np.abs(block[:, j]) > 1e-9)
                keys.append(int(nz[0]) if nz.size else block.shape[0])
            vecs[:, start : end + 1] = block[:, np.argsort(keys, kind="stable")]
        start = end + 1
    return vals, _loop_fix_column_signs(vecs)


def _sign_convention_cases():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 5, 8, 17, 32, 64):
        a = rng.standard_normal((n, n))
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        perm = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
        yield pytest.param("spd", a @ a.T, id=f"spd-{n}")
        repeated = (q * rng.choice([1.0, 2.0, 3.0], n)) @ q.T
        yield pytest.param("repeated", repeated, id=f"repeated-{n}")
        ties = perm @ np.diag(rng.choice([1.0, 5.0], n)) @ perm.T
        yield pytest.param("signed-permutation", ties, id=f"signed-permutation-{n}")
        yield pytest.param("zero", np.zeros((n, n)), id=f"zero-{n}")
        yield pytest.param("general", a, id=f"general-{n}")


@pytest.mark.parametrize("kind, a", list(_sign_convention_cases()))
def test_sign_conventions_match_the_column_loops_bitwise(kind, a):
    assert np.array_equal(fix_column_signs(a), _loop_fix_column_signs(a))
    if kind != "general":  # eigh needs a symmetric matrix
        for got, want in zip(eigh_descending(a), _loop_eigh_descending(a)):
            assert np.array_equal(got, want)


def test_eigh_descending_orders_ties_by_first_entry():
    # a signed permutation of diag(3, 3, 3, 1) is diag(3, 3, 1, 3); its
    # basis is the identity, tied columns in order of their nonzero entry
    perm = np.eye(4)[[2, 0, 3, 1]] * [1.0, -1.0, -1.0, 1.0]
    vals, vecs = eigh_descending(perm @ np.diag([3.0, 3.0, 3.0, 1.0]) @ perm.T)
    assert vals.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert np.array_equal(vecs, np.eye(4)[:, [0, 1, 3, 2]])
