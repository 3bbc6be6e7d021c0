import numpy as np
import pytest

from gmmsense import synthetic
from gmmsense._linalg import SingularMatrixError
from gmmsense.model import GaussianComponent
from gmmsense.synthetic import (
    bhattacharyya_distance,
    power_law_eigenvalues,
    synth_covariance,
    synth_covariance_pair,
    synth_model_pair,
)


def comp_from_diag(diag):
    return GaussianComponent.from_moments(
        np.zeros(len(diag)), np.diag(np.asarray(diag, dtype=float))
    )


class TestBhattacharyyaDistance:
    def test_identical_covariances_give_exact_zero(self):
        c = comp_from_diag([3.0, 1.0, 0.5])
        assert bhattacharyya_distance(c, c) == 0.0

    def test_scalar_diagonal_closed_form(self):
        # 0.5 * ln(|avg| / sqrt(|S0||S1|)) with avg = diag(2.5, 2.5):
        # 0.5 * ln(6.25 / 4) = ln(2.5) - ln(2)
        c0 = comp_from_diag([1.0, 1.0])
        c1 = comp_from_diag([4.0, 4.0])
        expected = np.log(2.5) - np.log(2.0)
        assert abs(bhattacharyya_distance(c0, c1) - expected) < 1e-12

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        c0 = GaussianComponent.from_moments(np.zeros(4), a @ a.T + np.eye(4))
        c1 = GaussianComponent.from_moments(np.zeros(4), b @ b.T + np.eye(4))
        assert bhattacharyya_distance(c0, c1) == bhattacharyya_distance(c1, c0)

    def test_nonnegative(self):
        for s in range(5):
            rng = np.random.default_rng(s)
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            c0 = GaussianComponent.from_moments(np.zeros(5), a @ a.T + 0.1 * np.eye(5))
            c1 = GaussianComponent.from_moments(np.zeros(5), b @ b.T + 0.1 * np.eye(5))
            assert bhattacharyya_distance(c0, c1) >= 0.0

    def test_rejects_zero_covariance(self):
        c0 = GaussianComponent(
            mean=np.zeros(2),
            covariance=np.zeros((2, 2)),
            basis=np.eye(2),
            eigenvalues=np.zeros(2),
        )
        c1 = comp_from_diag([1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            bhattacharyya_distance(c0, c1)

    def test_rejects_nonzero_means(self):
        c0 = GaussianComponent.from_moments(np.ones(2), np.eye(2))
        c1 = comp_from_diag([1.0, 1.0])
        with pytest.raises(ValueError):
            bhattacharyya_distance(c0, c1)


class TestSynthCovariance:
    def test_eigenvalue_formula_exact(self):
        c = synth_covariance(4, r=1.0, beta=4.0, omega=3, seed=0)
        expected = np.array([10000.0, 1250.0, 10000.0 / 27.0, 156.25])
        assert np.allclose(c.eigenvalues, expected, rtol=1e-15)

    def test_same_seed_bitwise_identical(self):
        a = synth_covariance(8, 0.5, 5.0, 4, seed=42)
        b = synth_covariance(8, 0.5, 5.0, 4, seed=42)
        assert np.array_equal(a.covariance, b.covariance)
        assert np.array_equal(a.basis, b.basis)

    def test_different_seed_differs(self):
        a = synth_covariance(8, 0.5, 5.0, 4, seed=42)
        b = synth_covariance(8, 0.5, 5.0, 4, seed=43)
        assert np.linalg.norm(a.covariance - b.covariance) > 0

    def test_spectrum_formula_across_parameter_grid(self):
        for r in (0.1, 0.5, 1.0):
            for beta in (4.0, 6.0, 8.0):
                for omega in (3, 4):
                    c = synth_covariance(6, r, beta, omega, seed=1)
                    expected = power_law_eigenvalues(6, r, beta, omega)
                    assert np.allclose(c.eigenvalues, expected, rtol=1e-12)
                    recon = (c.basis * c.eigenvalues) @ c.basis.T
                    assert np.linalg.norm(recon - c.covariance) <= 1e-8 * (
                        1 + np.linalg.norm(c.covariance)
                    )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, r=1.0, beta=4.0, omega=3),
            dict(n=4, r=0.0, beta=4.0, omega=3),
            dict(n=4, r=1.5, beta=4.0, omega=3),
            dict(n=4, r=1.0, beta=3.0, omega=3),
            dict(n=4, r=1.0, beta=9.0, omega=3),
            dict(n=4, r=1.0, beta=4.0, omega=5),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            synth_covariance(**kwargs, seed=0)


class TestPairGeneration:
    def test_bucketed_pair_lands_in_range(self):
        c0, c1, bd = synth_covariance_pair(36, 30.0, 46.0, seed=5)
        assert 30.0 <= bd < 46.0
        # the reported distance is reproducible from the components
        assert abs(bhattacharyya_distance(c0, c1) - bd) < 1e-12

    def test_model_pair_priors(self):
        model, bd = synth_model_pair(36, 30.0, 46.0, seed=5)
        assert np.array_equal(model.priors, [0.5, 0.5])
        assert 30.0 <= bd < 46.0

    def test_unreachable_bucket_raises(self, monkeypatch):
        # 10,000 real draws at n=4 take seconds; 20 show the same give-up.
        monkeypatch.setattr(synthetic, "_MAX_ATTEMPTS", 20)
        with pytest.raises(RuntimeError, match="after 20 attempts"):
            synth_covariance_pair(4, 1000.0, 1001.0, seed=0)
