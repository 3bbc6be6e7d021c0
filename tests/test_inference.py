import numpy as np
import pytest

from helpers import lowrank_component, random_model, random_spd
from gmmsense.adaptive import AcquisitionState
from gmmsense.design import random_orthonormal
from gmmsense.inference import (
    map_classify,
    map_em,
    map_em_objective,
    map_reconstruct,
    wiener_coefficients,
)
from gmmsense.model import (
    GaussianComponent,
    GmmModel,
    m_step_update,
    sample_signals,
)
from gmmsense.synthetic import bhattacharyya_distance


def eq_objective(y, rows, comp, alpha, sigma2):
    resid = y - rows @ (comp.basis @ alpha)
    lam = np.maximum(comp.eigenvalues, 1e-10 * comp.eigenvalues.max())
    return float(resid @ resid + sigma2 * np.sum(alpha**2 / lam))


def state_with_rows(model, rows, measurements, sigma2=0.0):
    state = AcquisitionState.initial(model, sigma2, block_size=rows.shape[0])
    return state.append_block(rows, measurements, model)


class TestWienerCoefficients:
    def test_invertible_noiseless_sensing_is_exact(self):
        n = 6
        comp = GaussianComponent.from_moments(np.zeros(n), random_spd(n, seed=1))
        phi = random_orthonormal(n, n, seed=2)
        rng = np.random.default_rng(3)
        x = comp.basis @ (np.sqrt(comp.eigenvalues) * rng.standard_normal(n))
        y = phi.rows @ x
        alpha = wiener_coefficients(y, phi, comp, 0.0)
        xhat = comp.basis @ alpha
        assert np.abs(xhat - x).max() <= 1e-10

    def test_scalar_shrinkage(self):
        comp = GaussianComponent(
            mean=np.zeros(1),
            covariance=np.array([[3.0]]),
            basis=np.eye(1),
            eigenvalues=np.array([3.0]),
        )
        rows = np.array([[1.0]])
        y = np.array([2.0])
        sigma2 = 0.5
        alpha = wiener_coefficients(y, rows, comp, sigma2)
        assert abs(alpha[0] - 3.0 / 3.5 * 2.0) < 1e-14

    def test_matches_normal_equations(self):
        n, m = 7, 4
        comp = GaussianComponent.from_moments(np.zeros(n), random_spd(n, seed=4))
        rows = random_orthonormal(m, n, seed=5).rows
        rng = np.random.default_rng(6)
        y = rng.standard_normal(m)
        sigma2 = 0.3
        alpha = wiener_coefficients(y, rows, comp, sigma2)
        a = rows @ comp.basis
        lhs = a.T @ a + sigma2 * np.diag(1.0 / comp.eigenvalues)
        oracle = np.linalg.solve(lhs, a.T @ y)
        assert np.abs(alpha - oracle).max() <= 1e-8 * max(1.0, np.abs(oracle).max())

    def test_minimizes_objective_against_perturbations(self):
        n, m = 6, 3
        comp = GaussianComponent.from_moments(np.zeros(n), random_spd(n, seed=7))
        rows = random_orthonormal(m, n, seed=8).rows
        rng = np.random.default_rng(9)
        y = rng.standard_normal(m)
        sigma2 = 0.2
        alpha = wiener_coefficients(y, rows, comp, sigma2)
        base = eq_objective(y, rows, comp, alpha, sigma2)
        for _ in range(100):
            delta = rng.standard_normal(n)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= eq_objective(y, rows, comp, alpha + delta, sigma2) + 1e-15

    def test_batch_matches_one_vector_at_a_time(self):
        n, m = 7, 4
        comp = GaussianComponent.from_moments(np.zeros(n), random_spd(n, seed=4))
        rows = random_orthonormal(m, n, seed=5).rows
        y = np.random.default_rng(6).standard_normal((5, m))
        batch = wiener_coefficients(y, rows, comp, 0.3)
        assert batch.shape == (5, n)
        for s in range(5):
            single = wiener_coefficients(y[s], rows, comp, 0.3)
            assert np.abs(batch[s] - single).max() <= 1e-12 * np.abs(single).max()

    def test_dimension_mismatch_rejected(self):
        comp = GaussianComponent.from_moments(np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            wiener_coefficients(np.zeros(2), np.eye(3), comp, 0.0)


class TestMapReconstruct:
    def test_single_class_always_selected(self):
        model = random_model(5, 1, seed=10)
        rows = random_orthonormal(3, 5, seed=11).rows
        y = np.random.default_rng(12).standard_normal(3)
        res = map_reconstruct(y, rows, model, 0.1)
        assert res.selected_class == 1

    def test_zero_noise_objective_is_pure_residual(self):
        n, m = 6, 3
        model = random_model(n, 2, seed=13)
        rows = random_orthonormal(m, n, seed=14).rows
        y = np.random.default_rng(15).standard_normal(m)
        res = map_reconstruct(y, rows, model, 0.0)
        for g, comp in enumerate(model.components):
            alpha = wiener_coefficients(y, rows, comp, 0.0)
            resid = y - rows @ (comp.basis @ alpha)
            assert abs(res.objective_values[g] - resid @ resid) < 1e-12

    def test_estimate_consistency_and_tie_break(self):
        cov = random_spd(4, seed=16)
        a = GaussianComponent.from_moments(np.zeros(4), cov, 0.5)
        model = GmmModel(components=(a, a.with_prior(0.5)))
        rows = random_orthonormal(2, 4, seed=17).rows
        y = np.random.default_rng(18).standard_normal(2)
        res = map_reconstruct(y, rows, model, 0.1)
        assert res.selected_class == 1  # identical objectives, lowest index
        recon = model.components[0].basis @ res.coefficients
        assert np.abs(res.signal_estimate - recon).max() < 1e-10

    def test_selection_accuracy_on_separated_classes(self):
        # rank-deficient classes make residual-based selection geometric at
        # full budget and zero noise
        n = 24
        c0 = lowrank_component(1, n, rank=8, prior=0.5)
        c1 = lowrank_component(2, n, rank=8, prior=0.5)
        model = GmmModel(components=(c0, c1))
        assert bhattacharyya_distance(c0, c1) >= 62.0
        batch = sample_signals(model, 1000, seed=19)
        phi = random_orthonormal(n, n, seed=20)
        y_all = batch.signals @ phi.rows.T
        hits = sum(
            map_reconstruct(y_all[i], phi, model, 0.0).selected_class
            == batch.labels[i]
            for i in range(batch.n_signals)
        )
        assert hits / batch.n_signals >= 0.99

    def test_nonzero_means_centered_per_class(self):
        n = 4
        mean = np.array([5.0, -3.0, 2.0, 0.5])
        comp = GaussianComponent.from_moments(mean, random_spd(n, seed=21))
        model = GmmModel(components=(comp,))
        phi = random_orthonormal(n, n, seed=22)
        x = mean + comp.basis @ (
            np.sqrt(comp.eigenvalues) * np.random.default_rng(23).standard_normal(n)
        )
        res = map_reconstruct(phi.rows @ x, phi, model, 0.0)
        assert np.abs(res.signal_estimate - x).max() < 1e-9


class TestMapClassify:
    def test_scalar_threshold(self):
        model = GmmModel(
            components=(
                GaussianComponent.from_moments(np.zeros(1), np.array([[1.0]]), 0.5),
                GaussianComponent.from_moments(np.zeros(1), np.array([[4.0]]), 0.5),
            )
        )
        rows = np.array([[1.0]])
        # decision threshold |y| = sqrt((4/3) ln 4) ~ 1.3594
        thresh = np.sqrt(4.0 / 3.0 * np.log(4.0))
        state = state_with_rows(model, rows, [1.0])
        assert map_classify(state, model) == 1
        state = state_with_rows(model, rows, [2.0])
        assert map_classify(state, model) == 2
        state = state_with_rows(model, rows, [thresh * 0.999])
        assert map_classify(state, model) == 1
        state = state_with_rows(model, rows, [thresh * 1.001])
        assert map_classify(state, model) == 2

    def test_identical_covariances_tie_to_first(self):
        cov = random_spd(3, seed=24)
        a = GaussianComponent.from_moments(np.zeros(3), cov, 0.5)
        model = GmmModel(components=(a, a.with_prior(0.5)))
        rows = random_orthonormal(2, 3, seed=25).rows
        state = state_with_rows(model, rows, [0.7, -0.2])
        assert map_classify(state, model) == 1

    def test_agrees_with_density_oracle(self):
        from scipy.stats import multivariate_normal

        hits = 0
        for s in range(500):
            rng = np.random.default_rng(30000 + s)
            n = int(rng.integers(3, 7))
            m = int(rng.integers(1, n + 1))
            g_total = int(rng.integers(2, 5))
            model = random_model(n, g_total, seed=31000 + s)
            rows = random_orthonormal(m, n, seed=32000 + s).rows
            y = rng.standard_normal(m)
            sigma2 = float(rng.uniform(0.05, 0.5))
            state = state_with_rows(model, rows, y, sigma2=sigma2)
            scores = [
                multivariate_normal.logpdf(
                    y,
                    mean=rows @ c.mean,
                    cov=rows @ c.covariance @ rows.T + sigma2 * np.eye(m),
                )
                for c in model.components
            ]
            oracle = int(np.argmax(scores)) + 1
            hits += int(map_classify(state, model) == oracle)
        assert hits == 500

    def test_invariant_under_measurement_reordering(self):
        model = random_model(6, 3, seed=26)
        rows = random_orthonormal(4, 6, seed=27).rows
        y = np.random.default_rng(28).standard_normal(4)
        state = state_with_rows(model, rows, y, sigma2=0.2)
        perm = np.array([2, 0, 3, 1])
        state_p = state_with_rows(model, rows[perm], y[perm], sigma2=0.2)
        assert map_classify(state, model) == map_classify(state_p, model)

    def test_requires_measurements(self):
        model = random_model(4, 2, seed=29)
        state = AcquisitionState.initial(model, 0.0, 1)
        with pytest.raises(ValueError):
            map_classify(state, model)


def moment_matched_signals(model):
    """Signal set whose per-class empirical moments equal the model exactly."""
    sigs, labs = [], []
    for g, comp in enumerate(model.components, start=1):
        active = np.flatnonzero(comp.eigenvalues > 0)
        count = 2 * active.size
        for i in active:
            c = np.sqrt(count * comp.eigenvalues[i] / 2.0)
            sigs.append(comp.mean + c * comp.basis[:, i])
            sigs.append(comp.mean - c * comp.basis[:, i])
            labs += [g, g]
    return np.array(sigs), np.array(labs)


class TestMapEm:
    def _lowrank_model(self, n=16, rank=6, seeds=(1, 2)):
        return GmmModel(
            components=(
                lowrank_component(seeds[0], n, rank),
                lowrank_component(seeds[1], n, rank),
            )
        )

    def test_kappa_zero_is_identity(self):
        model = self._lowrank_model()
        y = np.zeros((4, 16))
        phi = random_orthonormal(16, 16, seed=3)
        assert map_em(y, phi, model, 0.0, 0) is model

    def test_truth_is_fixed_point(self):
        model = self._lowrank_model()
        sigs, labs = moment_matched_signals(model)
        # Two signals per direction of each rank-6 support: extra ones would
        # mean rounding noise was kept as spectrum.
        for g in (1, 2):
            assert np.count_nonzero(labs == g) == 12
        fitted = m_step_update(sigs, labs, model)
        for a, b in zip(fitted.components, model.components):
            assert np.abs(a.covariance - b.covariance).max() < 1e-9
        phi = random_orthonormal(16, 16, seed=4)
        after = map_em(sigs @ phi.rows.T, phi, model, 0.0, kappa=2)
        for a, b in zip(after.components, model.components):
            assert a.prior == 0.5
            rel = np.linalg.norm(a.covariance - b.covariance) / np.linalg.norm(
                b.covariance
            )
            assert rel < 1e-6
            assert np.abs(a.mean - b.mean).max() < 1e-6

    def test_recovers_truth_from_inflated_init(self):
        n = 36
        truth = GmmModel(
            components=(
                lowrank_component(11, n, 12),
                lowrank_component(12, n, 12),
            )
        )
        assert (
            bhattacharyya_distance(truth.components[0], truth.components[1]) >= 62.0
        )
        batch = sample_signals(truth, 5000, seed=50)
        inflated = GmmModel(
            components=tuple(
                GaussianComponent.from_moments(c.mean, 1.5 * c.covariance, c.prior)
                for c in truth.components
            )
        )
        phi = random_orthonormal(n, n, seed=5)
        recovered = map_em(batch.signals @ phi.rows.T, phi, inflated, 0.0, kappa=5)
        for a, b in zip(recovered.components, truth.components):
            rel = np.linalg.norm(a.covariance - b.covariance) / np.linalg.norm(
                b.covariance
            )
            assert rel <= 0.10

    def test_objective_monotone_noiseless(self):
        # fixed sensing, zero noise: each E/M pass may not increase the
        # total selected-class objective
        n, m = 20, 12
        truth = GmmModel(
            components=(
                lowrank_component(21, n, 5),
                lowrank_component(22, n, 5),
            )
        )
        batch = sample_signals(truth, 800, seed=6)
        rng = np.random.default_rng(7)
        init = GmmModel(
            components=tuple(
                GaussianComponent.from_moments(
                    c.mean,
                    c.covariance
                    + 0.05 * c.eigenvalues.max() * np.eye(n),
                    c.prior,
                )
                for c in truth.components
            )
        )
        phi = random_orthonormal(m, n, seed=8)
        y = batch.signals @ phi.rows.T
        objs = []
        current = init
        for _ in range(5):
            objs.append(map_em_objective(y, phi, current, 0.0))
            current = map_em(y, phi, current, 0.0, kappa=1)
        objs.append(map_em_objective(y, phi, current, 0.0))
        for prev_o, next_o in zip(objs, objs[1:]):
            assert next_o <= prev_o + 1e-8 * max(abs(prev_o), 1.0)

    def test_starved_class_keeps_parameters(self):
        model = self._lowrank_model()
        comp = model.components[0]
        rng = np.random.default_rng(9)
        z = rng.standard_normal((50, 16))
        sigs = (z * np.sqrt(comp.eigenvalues)) @ comp.basis.T  # class-1 only
        phi = random_orthonormal(16, 16, seed=10)
        out = map_em(sigs @ phi.rows.T, phi, model, 0.0, kappa=1)
        assert out.components[1].prior in (0.0, pytest.approx(0.0))
        assert np.array_equal(
            out.components[1].covariance, model.components[1].covariance
        )
