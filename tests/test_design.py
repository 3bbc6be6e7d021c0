import numpy as np
import pytest

from helpers import principal_angles, random_model, random_spd
from gmmsense._linalg import orthonormalize_rows
from gmmsense.design import (
    SensingMatrix,
    as_rows,
    eigen_sensing,
    random_orthonormal,
    require_orthonormal_rows,
    rip_ab,
)
from gmmsense.model import GaussianComponent, GmmModel


def random_rotation(n, seed):
    return orthonormalize_rows(np.random.default_rng(seed).standard_normal((n, n)))


class TestSensingMatrix:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SensingMatrix(rows=np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_wide(self):
        with pytest.raises(ValueError, match=r"^more rows than columns \(3 > 2\)$"):
            SensingMatrix(rows=np.eye(3)[:, :2])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "value, message",
        [
            (np.nan, "must be finite$"),
            (np.inf, "must be finite$"),
            (-np.inf, "must be finite$"),
            (1e200, r"are not orthonormal \(an entry exceeds 2 in magnitude\)$"),
        ],
        ids=["nan", "inf", "-inf", "huge"],
    )
    def test_rejects_a_non_finite_row_before_its_gram(self, value, message):
        # A NaN residual passed "resid > 1e-8", and an inf row, or a finite
        # one far from unit length, warned in the Gram product.
        rows = np.eye(3, 4)
        rows[1, 2] = value
        with pytest.raises(ValueError, match=f"^step-1 rows {message}"):
            require_orthonormal_rows(rows, "step-1")
        with pytest.raises(ValueError, match=f"^sensing rows {message}"):
            SensingMatrix(rows=rows)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda comp: SensingMatrix(rows=np.ones(3)), "rows must be a 2-D array"),
        (lambda comp: as_rows(np.ones(3)), "sensing rows must be a 2-D array"),
        (lambda comp: random_orthonormal(0, 4), "need 1 <= m <= n, got m=0, n=4"),
        (lambda comp: random_orthonormal(5, 4), "need 1 <= m <= n, got m=5, n=4"),
        (lambda comp: eigen_sensing(comp, 0), "need 1 <= m <= 4, got m=0"),
        (lambda comp: eigen_sensing(comp, 5), "need 1 <= m <= 4, got m=5"),
    ],
    ids=["sensing-1d", "as-rows-1d", "random-0", "random-above-n", "eigen-0", "eigen-above-n"],
)
def test_rejects_shapes_and_sizes_that_do_not_match(call, message):
    comp = GaussianComponent.from_moments(np.zeros(4), random_spd(4, seed=20))
    with pytest.raises(ValueError) as err:
        call(comp)
    assert str(err.value) == message


class TestRandomOrthonormal:
    def test_square_is_orthogonal(self):
        phi = random_orthonormal(3, 3, seed=0)
        assert np.abs(phi.rows @ phi.rows.T - np.eye(3)).max() < 1e-12

    def test_rectangular_rows_orthonormal(self):
        phi = random_orthonormal(2, 8, seed=0)
        assert np.abs(phi.rows @ phi.rows.T - np.eye(2)).max() < 1e-12

    def test_deterministic_and_seed_sensitive(self):
        a = random_orthonormal(4, 9, seed=5)
        b = random_orthonormal(4, 9, seed=5)
        c = random_orthonormal(4, 9, seed=6)
        assert np.array_equal(a.rows, b.rows)
        assert np.linalg.norm(a.rows - c.rows) > 0

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError):
            random_orthonormal(5, 3, seed=0)


class TestEigenSensing:
    def test_diagonal_covariance(self):
        c = GaussianComponent.from_moments(np.zeros(3), np.diag([4.0, 2.0, 1.0]))
        phi = eigen_sensing(c, 2)
        assert np.array_equal(phi.rows, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))

    def test_projects_basis_to_identity_block(self):
        c = GaussianComponent.from_moments(np.zeros(6), random_spd(6, seed=3))
        m = 4
        phi = eigen_sensing(c, m)
        target = np.hstack([np.eye(m), np.zeros((m, 6 - m))])
        assert np.abs(phi.rows @ c.basis - target).max() < 1e-10

    def test_monte_carlo_tail_sum(self):
        # adjoint reconstruction xhat = R^T R x has expected squared error
        # equal to the tail eigenvalue sum
        n, m = 8, 3
        cov = random_spd(n, seed=4, cond=50.0)
        c = GaussianComponent.from_moments(np.zeros(n), cov)
        phi = eigen_sensing(c, m)
        rng = np.random.default_rng(11)
        z = rng.standard_normal((100000, n))
        x = (z * np.sqrt(c.eigenvalues)) @ c.basis.T
        xhat = (x @ phi.rows.T) @ phi.rows
        err = np.mean(np.sum((x - xhat) ** 2, axis=1))
        expected = float(np.sum(c.eigenvalues[m:]))
        assert abs(err - expected) <= 0.02 * expected

    def test_full_budget_reconstructs_span(self):
        n = 5
        c = GaussianComponent.from_moments(np.zeros(n), random_spd(n, seed=5))
        phi = eigen_sensing(c, n)
        rng = np.random.default_rng(12)
        x = c.basis @ (np.sqrt(c.eigenvalues) * rng.standard_normal(n))
        xhat = phi.rows.T @ (phi.rows @ x)
        assert np.abs(x - xhat).max() < 1e-10


class TestRipAb:
    def test_single_component_reduces_to_eigen_sensing(self):
        model = random_model(6, 1, seed=15)
        m = 3
        phi = rip_ab(model, m)
        ref = eigen_sensing(model.components[0], m)
        assert principal_angles(phi.rows, ref.rows).max() <= 1e-8
        assert np.abs(phi.rows - ref.rows).max() < 1e-8

    def test_beats_random_orthogonal_matrices_on_alignment(self):
        model = random_model(8, 3, seed=16)
        e = sum(c.prior * c.basis for c in model.components)  # entrywise average
        u, _, wt = np.linalg.svd(e)
        b_star = wt.T @ u.T
        assert np.allclose(rip_ab(model, 8).rows, b_star, rtol=0.0, atol=1e-10)
        best = np.linalg.norm(b_star @ e - np.eye(8))
        for s in range(1000):
            b = random_rotation(8, seed=1000 + s)
            assert best <= np.linalg.norm(b @ e - np.eye(8)) + 1e-12

    def test_zero_weight_component_is_ignored(self):
        a = GaussianComponent.from_moments(np.zeros(4), random_spd(4, seed=7), 1.0)
        b = GaussianComponent.from_moments(np.zeros(4), random_spd(4, seed=8), 0.0)
        alone = rip_ab(GmmModel(components=(a,)), 3).rows
        assert np.array_equal(rip_ab(GmmModel(components=(a, b)), 3).rows, alone)

    def test_deterministic_and_permutation_invariant(self):
        a = GaussianComponent.from_moments(np.zeros(5), random_spd(5, seed=17), 0.5)
        b = a.with_prior(0.5)
        m1 = GmmModel(components=(a, b))
        m2 = GmmModel(components=(b, a))
        assert np.array_equal(rip_ab(m1, 3).rows, rip_ab(m2, 3).rows)

    def test_rows_orthonormal(self):
        model = random_model(7, 4, seed=18)
        phi = rip_ab(model, 5)
        assert np.abs(phi.rows @ phi.rows.T - np.eye(5)).max() <= 1e-8


class TestDictionaryIdentities:
    """Frobenius identities tying the concatenated-dictionary objective to
    the row-orthogonality condition."""

    @pytest.mark.parametrize("n,g,m", [(8, 2, 3), (16, 3, 6), (12, 1, 5)])
    def test_gram_penalty_decomposition(self, n, g, m):
        model = random_model(n, g, seed=19 + n)
        d = np.hstack([c.basis for c in model.components])
        phi = random_orthonormal(m, n, seed=20 + n).rows
        lhs = np.linalg.norm(d.T @ phi.T @ phi @ d - np.eye(g * n)) ** 2
        rhs = np.linalg.norm(phi @ d @ d.T @ phi.T - np.eye(m)) ** 2
        assert abs((lhs - rhs) - (g * n - m)) <= 1e-6 * (g * n - m)

    @pytest.mark.parametrize("n,g,m", [(8, 2, 3), (16, 3, 6), (12, 1, 5)])
    def test_dictionary_gram_collapses_to_row_gram(self, n, g, m):
        model = random_model(n, g, seed=21 + n)
        d = np.hstack([c.basis for c in model.components])
        phi = random_orthonormal(m, n, seed=22 + n).rows
        lhs = np.linalg.norm(phi @ d @ d.T @ phi.T - np.eye(m)) ** 2
        rhs = np.linalg.norm(g * phi @ phi.T - np.eye(m)) ** 2
        assert abs(lhs - rhs) <= 1e-8 * max(rhs, 1.0)
