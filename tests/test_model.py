import numpy as np
import pytest

from helpers import lowrank_component, random_spd
from gmmsense._linalg import NonSymmetricMatrixError, NotPositiveSemidefiniteError
from gmmsense.model import (
    GaussianComponent,
    GmmModel,
    SignalBatch,
    m_step_update,
    sample_signals,
    spd_eigendecompose,
)


class TestSpdEigendecompose:
    def test_identity(self):
        basis, vals = spd_eigendecompose(np.eye(3))
        assert np.array_equal(vals, np.ones(3))
        assert np.abs(basis - np.eye(3)).max() < 1e-12

    def test_already_diagonal(self):
        basis, vals = spd_eigendecompose(np.diag([4.0, 1.0]))
        assert np.allclose(vals, [4.0, 1.0])
        assert np.abs(basis - np.eye(2)).max() < 1e-12

    def test_random_roundtrip(self):
        a = random_spd(6, seed=11)
        basis, vals = spd_eigendecompose(a)
        recon = (basis * vals) @ basis.T
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)

    def test_rejects_asymmetric(self):
        a = np.eye(4)
        a[0, 1] = 0.01
        with pytest.raises(NonSymmetricMatrixError):
            spd_eigendecompose(a)

    def test_rejects_negative_definite_direction(self):
        a = np.diag([1.0, -1e-6])
        with pytest.raises(NotPositiveSemidefiniteError):
            spd_eigendecompose(a)

    def test_clamps_rounding_negatives(self):
        a = np.diag([1.0, -1e-12])
        _, vals = spd_eigendecompose(a)
        assert vals[1] == 0.0

    def test_descending_and_nonnegative(self):
        _, vals = spd_eigendecompose(random_spd(9, seed=12, cond=1e6))
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals >= 0)

    def test_lowrank_reports_true_rank(self):
        # Rank 6 with lambda_max = 1e4: the 10 null directions come out of
        # eigh as noise of order 1e-12 and must be stored as exact zeros.
        cov = lowrank_component(1, 16, 6).covariance
        _, vals = spd_eigendecompose(cov)
        assert np.count_nonzero(vals) == 6
        assert np.all(vals[6:] == 0.0)

    def test_keeps_small_eigenvalue_above_rank_tolerance(self):
        # 1e-13 > 2 * eps * 1.0, so it is spectrum, not rounding noise.
        _, vals = spd_eigendecompose(np.diag([1.0, 1e-13]))
        assert vals[1] == 1e-13

    def test_zeroes_rounding_positives(self):
        # 1e-17 <= 2 * eps * 1.0.
        _, vals = spd_eigendecompose(np.diag([1.0, 1e-17]))
        assert vals[1] == 0.0


class TestGaussianComponent:
    def test_from_moments_satisfies_invariants(self):
        a = random_spd(5, seed=13)
        c = GaussianComponent.from_moments(np.ones(5), a, prior=0.25)
        recon = c.basis @ (np.diag(c.eigenvalues) @ c.basis.T)
        assert np.linalg.norm(c.covariance - recon) <= 1e-8 * (
            1 + np.linalg.norm(c.covariance)
        )
        assert np.abs(c.basis.T @ c.basis - np.eye(5)).max() <= 1e-8

    def test_rejects_bad_prior(self):
        with pytest.raises(ValueError):
            GaussianComponent.from_moments(np.zeros(2), np.eye(2), prior=1.5)

    def test_rejects_inconsistent_factorization(self):
        with pytest.raises(ValueError):
            GaussianComponent(
                mean=np.zeros(2),
                covariance=np.eye(2),
                basis=np.eye(2),
                eigenvalues=np.array([5.0, 5.0]),
            )

    def test_immutable_arrays(self):
        c = GaussianComponent.from_moments(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            c.mean[0] = 1.0


class TestGmmModel:
    def test_prior_sum_enforced(self):
        c = GaussianComponent.from_moments(np.zeros(2), np.eye(2), prior=0.6)
        with pytest.raises(ValueError):
            GmmModel(components=(c, c))

    def test_dimension_mismatch_rejected(self):
        a = GaussianComponent.from_moments(np.zeros(2), np.eye(2), prior=0.5)
        b = GaussianComponent.from_moments(np.zeros(3), np.eye(3), prior=0.5)
        with pytest.raises(ValueError):
            GmmModel(components=(a, b))

    def test_component_lookup_is_one_based(self):
        a = GaussianComponent.from_moments(np.zeros(2), np.eye(2), prior=0.5)
        b = GaussianComponent.from_moments(np.zeros(2), 2 * np.eye(2), prior=0.5)
        m = GmmModel(components=(a, b))
        assert m.component(2) is m.components[1]
        with pytest.raises(ValueError):
            m.component(0)
        with pytest.raises(ValueError):
            m.component(3)


class TestSampleSignals:
    def test_degenerate_component_gives_exact_zeros(self):
        c = GaussianComponent(
            mean=np.zeros(3),
            covariance=np.zeros((3, 3)),
            basis=np.eye(3),
            eigenvalues=np.zeros(3),
            prior=1.0,
        )
        batch = sample_signals(GmmModel(components=(c,)), 20, seed=0)
        assert np.array_equal(batch.signals, np.zeros((20, 3)))
        assert np.array_equal(batch.labels, np.ones(20, dtype=int))

    def test_empirical_covariance_concentrates(self):
        c = GaussianComponent.from_moments(np.zeros(2), np.eye(2), prior=1.0)
        batch = sample_signals(GmmModel(components=(c,)), 50000, seed=1)
        emp = batch.signals.T @ batch.signals / batch.n_signals
        assert np.abs(emp - np.eye(2)).max() < 0.05

    def test_label_fractions_match_priors(self):
        a = GaussianComponent.from_moments(np.zeros(2), np.eye(2), prior=0.3)
        b = GaussianComponent.from_moments(np.zeros(2), 2 * np.eye(2), prior=0.7)
        batch = sample_signals(GmmModel(components=(a, b)), 100000, seed=2)
        frac = np.mean(batch.labels == 1)
        assert abs(frac - 0.3) < 0.01

    def test_deterministic_and_order_independent(self):
        a = GaussianComponent.from_moments(np.zeros(2), np.eye(2), prior=1.0)
        m = GmmModel(components=(a,))
        b1 = sample_signals(m, 10, seed=3)
        b2 = sample_signals(m, 10, seed=3)
        assert np.array_equal(b1.signals, b2.signals)
        # per-signal derivation: a longer batch starts with the same signals
        b3 = sample_signals(m, 20, seed=3)
        assert np.array_equal(b3.signals[:10], b1.signals)


class TestMStepUpdate:
    def _model(self, n=2, g=2):
        comps = tuple(
            GaussianComponent.from_moments(
                np.zeros(n), (i + 1.0) * np.eye(n), 1.0 / g
            )
            for i in range(g)
        )
        return GmmModel(components=comps)

    def test_two_point_moments(self):
        prev = self._model()
        signals = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0], [0.0, -2.0]])
        labels = np.array([1, 1, 2, 2])
        out = m_step_update(signals, labels, prev)
        assert np.array_equal(out.components[0].mean, np.zeros(2))
        assert np.array_equal(out.components[0].covariance, np.diag([1.0, 0.0]))
        assert np.array_equal(out.components[1].covariance, np.diag([0.0, 4.0]))

    def test_starved_class_keeps_previous_parameters(self):
        prev = self._model()
        signals = np.array([[1.0, 0.0], [-1.0, 0.0], [3.0, 0.0]])
        labels = np.array([1, 1, 1])
        out = m_step_update(signals, labels, prev)
        assert out.components[0].prior == 1.0
        assert out.components[1].prior == 0.0
        assert np.array_equal(
            out.components[1].covariance, prev.components[1].covariance
        )

    def test_monte_carlo_moment_recovery(self):
        cov = random_spd(4, seed=21)
        truth = GaussianComponent.from_moments(np.zeros(4), cov, prior=1.0)
        model = GmmModel(components=(truth,))
        batch = sample_signals(model, 20000, seed=4)
        out = m_step_update(batch.signals, batch.labels, model)
        rel = np.linalg.norm(out.components[0].covariance - cov) / np.linalg.norm(cov)
        assert rel < 0.05

    def test_idempotent_bitwise(self):
        prev = self._model()
        rng = np.random.default_rng(5)
        signals = rng.standard_normal((40, 2))
        labels = rng.integers(1, 3, size=40)
        once = m_step_update(signals, labels, prev)
        twice = m_step_update(signals, labels, once)
        for a, b in zip(once.components, twice.components):
            assert np.array_equal(a.mean, b.mean)
            assert np.array_equal(a.covariance, b.covariance)
            assert np.array_equal(a.basis, b.basis)
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert a.prior == b.prior

    def test_subspace_signals_give_true_rank(self):
        # map_em refits from reconstructions that lie in a subspace; the
        # refit spectrum must not pick up rounding noise as extra rank.
        n, ranks = 16, (3, 5)
        rng = np.random.default_rng(8)
        signals, labels = [], []
        for g, r in enumerate(ranks, start=1):
            span, _ = np.linalg.qr(rng.standard_normal((n, r)))
            coeffs = rng.standard_normal((60, r)) * np.logspace(2, 0, r)
            signals.append(rng.standard_normal(n) + coeffs @ span.T)
            labels.append(np.full(60, g))
        out = m_step_update(
            np.vstack(signals), np.concatenate(labels), self._model(n=n)
        )
        for comp, r in zip(out.components, ranks):
            assert np.count_nonzero(comp.eigenvalues) == r

    def test_rejects_empty_assignment(self):
        prev = self._model()
        with pytest.raises(ValueError):
            m_step_update(np.empty((0, 2)), np.empty(0, dtype=int), prev)


class TestSignalBatch:
    def test_label_range_validated(self):
        with pytest.raises(ValueError):
            SignalBatch(signals=np.zeros((2, 3)), labels=np.array([0, 1]))

    def test_dc_offsets_length_checked(self):
        with pytest.raises(ValueError):
            SignalBatch(signals=np.zeros((2, 3)), dc_offsets=np.zeros(3))
