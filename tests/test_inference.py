import logging
import tracemalloc

import numpy as np
import pytest

from helpers import lowrank_component, random_model, random_spd
from gmmsense import inference
from gmmsense._linalg import EIG_FLOOR_REL
from gmmsense.adaptive import AcquisitionState, design_classification_block
from gmmsense.design import random_orthonormal
from gmmsense.inference import (
    map_classify,
    map_em,
    map_reconstruct,
    sht_run,
    wiener_coefficients,
)
from gmmsense.model import (
    GaussianComponent,
    GmmModel,
    m_step_update,
    sample_signals,
)
from gmmsense.synthetic import bhattacharyya_distance, synth_model_pair


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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda model: wiener_coefficients(np.zeros(1), np.eye(5)[:1], model.component(1), 0.1),
         "sensing width does not match the component dimension"),
        (lambda model: map_em(np.zeros((2, 1)), np.eye(4)[:1], model, 0.1, -1),
         "kappa must be >= 0"),
        (lambda model: map_em(np.zeros((2, 2)), np.eye(4)[:1], model, 0.1, 1),
         "measurements must be (S, M) matching the sensing rows"),
        (lambda model: map_em(np.zeros(1), np.eye(4)[:1], model, 0.1, 1),
         "measurements must be (S, M) matching the sensing rows"),
        (lambda model: sht_run(lambda rows: np.zeros(len(rows)), model, 1, 4, 0.5),
         "p_e must lie in (0, 0.5), got 0.5"),
        (lambda model: sht_run(lambda rows: np.zeros(len(rows)), model, 0, 4, 0.01),
         "need 1 <= b <= budget, got b=0, budget=4"),
        (lambda model: sht_run(lambda rows: np.zeros(len(rows)), model, 5, 4, 0.01),
         "need 1 <= b <= budget, got b=5, budget=4"),
    ],
    ids=["wiener-width", "kappa", "em-measurement-count", "em-1d", "p_e", "b-0",
         "b-above-budget"],
)
def test_rejects_shapes_and_sizes_that_do_not_match(call, message):
    model = random_model(4, 2, seed=21)
    with pytest.raises(ValueError) as err:
        call(model)
    assert str(err.value) == message


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


@pytest.mark.parametrize(
    "model_seed, sigma2",
    [(40, 0.0), (40, 0.1), (41, 0.0), (41, 0.1), ("tie", 0.1)],
)
def test_reconstruction_record_holds_the_argmin_and_its_estimate(model_seed, sigma2):
    # The record is built by map_reconstruct alone: selected_class is the
    # lowest-index argmin of objective_values and signal_estimate is the
    # selected class's mean + basis @ coefficients.
    n, m = 6, 4
    tie = model_seed == "tie"
    if tie:  # two classes with bitwise equal objectives
        comp = shifted_model(random_model(n, 1, seed=42), seed=45).components[0]
        model = GmmModel(components=(comp.with_prior(0.5), comp.with_prior(0.5)))
    else:
        model = shifted_model(random_model(n, 3, seed=model_seed), seed=45)
    rows = random_orthonormal(m, n, seed=43).rows
    winners = set()
    for y in np.random.default_rng(44).standard_normal((8, m)) * 3.0:
        res = map_reconstruct(y, rows, model, sigma2)
        assert res.objective_values.shape == (model.n_components,)
        assert res.selected_class == int(np.argmin(res.objective_values)) + 1
        comp = model.component(res.selected_class)
        assert np.array_equal(res.signal_estimate, comp.mean + comp.basis @ res.coefficients)
        winners.add(res.selected_class)
        if tie:
            assert np.all(res.objective_values == res.objective_values[0])
    if tie or sigma2 == 0.0:
        # At sigma2 = 0 every full-rank class fits exactly: all tie at 0.
        assert winners == {1}
    else:
        assert len(winners) > 1


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

        def total_objective(model):
            objectives = inference._class_objectives(y, phi.rows, model, 0.0)[0]
            return float(objectives.min(axis=0).sum())

        objs = []
        current = init
        for _ in range(5):
            objs.append(total_objective(current))
            current = map_em(y, phi, current, 0.0, kappa=1)
        objs.append(total_objective(current))
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


def dense_map_em(y, rows, model, sigma2, kappa):
    """map_em through one (G, S, N) coefficient array and np.argmin."""
    current = model
    for _ in range(kappa):
        objectives, coefficients = [], []
        for comp in current.components:
            centered = y - rows @ comp.mean
            alpha = wiener_coefficients(centered, rows, comp, sigma2)
            resid = centered - (alpha @ comp.basis.T) @ rows.T
            obj = np.einsum("sm,sm->s", resid, resid)
            lam_max = float(comp.eigenvalues.max(initial=0.0))
            if sigma2 > 0.0 and lam_max > 0.0:
                lam = np.maximum(comp.eigenvalues, EIG_FLOOR_REL * lam_max)
                obj = obj + sigma2 * np.sum(alpha**2 / lam, axis=1)
            objectives.append(obj)
            coefficients.append(alpha)
        labels = np.argmin(np.stack(objectives), axis=0)
        coefficients = np.stack(coefficients)
        estimates = np.empty((y.shape[0], current.dimension))
        for gi, comp in enumerate(current.components):
            idx = np.flatnonzero(labels == gi)
            if idx.size:
                estimates[idx] = comp.mean + coefficients[gi, idx] @ comp.basis.T
        current = m_step_update(estimates, labels + 1, current)
    return current


def assert_models_equal(a, b):
    assert np.array_equal(a.priors, b.priors)
    assert np.array_equal(a.mean_stack, b.mean_stack)
    assert np.array_equal(a.covariance_stack, b.covariance_stack)


def assert_map_em_is_dense(rows, g):
    """map_em over more than one chunk, at positive noise, is bitwise dense_map_em."""
    model = random_model(rows.shape[1], g, seed=43)
    assert inference._CHUNK < 4500
    y = sample_signals(model, 4500, seed=44).signals @ rows.T
    streamed = map_em(y, rows, model, 0.05, kappa=2)
    assert_models_equal(streamed, dense_map_em(y, rows, model, 0.05, kappa=2))


class TestStreamingEStep:
    def test_identical_components_tie_to_the_first(self):
        comp = GaussianComponent.from_moments(np.zeros(5), random_spd(5, seed=40), 0.5)
        model = GmmModel(components=(comp, comp.with_prior(0.5)))
        rows = random_orthonormal(3, 5, seed=41).rows
        y = np.random.default_rng(42).standard_normal((40, 3))
        objectives, labels, coefficients = inference._class_objectives(
            y, rows, model, 0.1
        )
        assert np.array_equal(objectives[0], objectives[1])
        assert np.array_equal(labels, np.zeros(40))
        fitted = map_em(y, rows, model, 0.1, kappa=1)
        assert fitted.priors.tolist() == [1.0, 0.0]

    def test_map_em_is_bitwise_the_dense_argmin_path(self):
        # More signals than one chunk, compressed rows, positive noise.
        assert_map_em_is_dense(random_orthonormal(6, 10, seed=45).rows, g=8)

    def test_map_em_with_identity_rows_is_bitwise_the_dense_argmin_path(self):
        # train_gmm's path: full observations, G = 10.
        assert_map_em_is_dense(np.eye(16), g=10)

    @pytest.mark.parametrize(
        "n, g, m, n_sig, seeds, chunks, coef_rtol",
        [
            (7, 4, 5, 23, (46, 47, 48), [4], 0.0),
            (7, 4, 5, 21, (46, 47, 48), [4], 0.0),
            # BLAS rounds these short-row products differently: the
            # coefficients move by up to 9.4e-14 relative.
            (33, 2, 31, 301, (5, 6, 7), [2, 3, 5, 17], 1e-12),
        ],
        ids=["short-tail", "one-signal-tail", "wide-rows"],
    )
    def test_chunking_does_not_change_results(
        self, n, g, m, n_sig, seeds, chunks, coef_rtol, monkeypatch
    ):
        model = random_model(n, g, seed=seeds[0])
        rows = random_orthonormal(m, n, seed=seeds[1]).rows
        y = np.random.default_rng(seeds[2]).standard_normal((n_sig, m))
        whole = inference._class_objectives(y, rows, model, 0.02)
        assert len(np.unique(whole[1])) > 1  # the running best changes hands
        for chunk in chunks:
            monkeypatch.setattr(inference, "_CHUNK", chunk)
            objectives, labels, coefficients = inference._class_objectives(y, rows, model, 0.02)
            assert np.array_equal(objectives, whole[0])
            assert np.array_equal(labels, whole[1])
            if coef_rtol == 0.0:
                assert np.array_equal(coefficients, whole[2])
            else:
                assert np.allclose(coefficients, whole[2], rtol=coef_rtol, atol=0.0)

    def test_lone_winners_get_their_class_coefficients(self, monkeypatch):
        # Class 1 wins one signal of the batch, so its one solve is a
        # one-row product; smaller chunks also leave some class a single
        # winner within a chunk. Coefficients are solved per class over its
        # winners, so they must not depend on how the scoring was chunked.
        model = random_model(7, 4, seed=46)
        rows = random_orthonormal(5, 7, seed=47).rows
        y = np.random.default_rng(48).standard_normal((60, 5))
        results = {}
        for chunk in (2, 3, 5, 2048):
            monkeypatch.setattr(inference, "_CHUNK", chunk)
            _, labels, coefficients = inference._class_objectives(y, rows, model, 0.02)
            lone = [
                np.bincount(labels[start:stop], minlength=4)
                for start, stop in inference._chunks(60)
            ]
            assert any(1 in counts for counts in lone)
            results[chunk] = labels, coefficients
        labels, coefficients = results[2048]
        assert np.bincount(labels, minlength=4)[1] == 1
        for chunk, (other_labels, other) in results.items():
            assert np.array_equal(other_labels, labels), chunk
            assert np.array_equal(other, coefficients), chunk
        for gi, comp in enumerate(model.components):
            idx = np.flatnonzero(labels == gi)
            expected = wiener_coefficients(y[idx] - rows @ comp.mean, rows, comp, 0.02)
            assert np.allclose(coefficients[idx], expected, rtol=1e-12, atol=0.0)

    def test_more_rows_than_dimensions(self):
        # Raw rows may outnumber N: the winners' z rows are then wider than
        # the coefficients they become.
        model = random_model(5, 3, seed=1)
        rows = np.random.default_rng(2).standard_normal((8, 5))
        y = np.random.default_rng(3).standard_normal((50, 8))
        _, labels, coefficients = inference._class_objectives(y, rows, model, 0.1)
        assert coefficients.shape == (50, 5)
        assert len(np.unique(labels)) == 3
        for gi, comp in enumerate(model.components):
            idx = np.flatnonzero(labels == gi)
            expected = wiener_coefficients(y[idx] - rows @ comp.mean, rows, comp, 0.1)
            assert np.allclose(coefficients[idx], expected, rtol=1e-12, atol=0.0)

    def test_map_em_memory_does_not_scale_with_classes_times_signals(self):
        # One (G, S, N) array is 10 * 6000 * 32 * 8 B = 15 MB; the dense path
        # peaks at about 43 MB here, the streaming E-step at about 7 MB.
        n, g, n_sig = 32, 10, 6000
        model = random_model(n, g, seed=49)
        y = np.random.default_rng(50).standard_normal((n_sig, n))
        rows = np.eye(n)
        tracemalloc.start()
        try:
            map_em(y, rows, model, 0.01, kappa=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6


def ridge_reference(y_c, rows, comp, sigma2):
    """Coefficients a = Lambda V^T R^T (R Sigma R^T + sigma2 I)^-1 y_c of
    centered measurements (S, m) by a dense solve, and the ridge objective
    ||y_c - R V a||^2 + sigma2 a^T Lambda^-1 a at them."""
    inner = rows @ comp.covariance @ rows.T + sigma2 * np.eye(rows.shape[0])
    alpha = (np.linalg.solve(inner, y_c.T).T @ rows @ comp.basis) * comp.eigenvalues
    resid = y_c - alpha @ (rows @ comp.basis).T
    penalty = sigma2 * np.sum(alpha**2 / comp.eigenvalues, axis=1)
    return alpha, np.einsum("sm,sm->s", resid, resid) + penalty


def shifted_model(base, seed):
    """base with random nonzero class means, so every class centers y apart."""
    rng = np.random.default_rng(seed)
    return GmmModel(
        components=tuple(
            GaussianComponent.from_moments(
                rng.standard_normal(c.dimension), c.covariance, c.prior
            )
            for c in base.components
        )
    )


class TestClosedFormObjectives:
    def test_matches_the_ridge_objective_at_its_minimizer(self):
        n, m, g, sigma2 = 10, 6, 5, 0.05
        model = shifted_model(random_model(n, g, seed=60), seed=61)
        rows = random_orthonormal(m, n, seed=62).rows
        rng = np.random.default_rng(63)
        signals = sample_signals(model, 300, seed=64).signals
        y = signals @ rows.T + np.sqrt(sigma2) * rng.standard_normal((300, m))
        objectives, labels, coefficients = inference._class_objectives(
            y, rows, model, sigma2
        )
        refs = [ridge_reference(y - rows @ c.mean, rows, c, sigma2) for c in model.components]
        ref_obj = np.stack([obj for _, obj in refs])
        assert np.all(np.abs(objectives - ref_obj) <= 1e-10 * ref_obj)
        assert np.array_equal(labels, np.argmin(ref_obj, axis=0))
        assert len(np.unique(labels)) > 1
        for gi, (comp, (alpha, _)) in enumerate(zip(model.components, refs)):
            solved = wiener_coefficients(y - rows @ comp.mean, rows, comp, sigma2)
            assert np.abs(solved - alpha).max() <= 1e-10 * np.abs(alpha).max()
            won = labels == gi
            assert np.abs(coefficients[won] - alpha[won]).max(initial=0.0) <= (
                1e-10 * np.abs(alpha).max()
            )

    def test_zero_noise_floored_directions_are_full_residual(self):
        # Rank-3 classes seen through 8 rows: 5 directions of each inner
        # matrix are floored, and the objective is the squared distance of
        # y_c from the class's projected range.
        n, m, rank = 12, 8, 3
        model = GmmModel(
            components=tuple(
                lowrank_component(s, n, rank, prior=1.0 / 3.0) for s in (70, 71, 72)
            )
        )
        rows = random_orthonormal(m, n, seed=73).rows
        y = 50.0 * np.random.default_rng(74).standard_normal((40, m))
        objectives, _, _ = inference._class_objectives(y, rows, model, 0.0)
        for gi, comp in enumerate(model.components):
            q, _ = np.linalg.qr(rows @ comp.basis[:, :rank])
            y_c = y - rows @ comp.mean
            outside = y_c - (y_c @ q) @ q.T
            distance = np.einsum("sm,sm->s", outside, outside)
            assert np.all(distance > 0.01 * np.einsum("sm,sm->s", y_c, y_c))
            assert np.all(np.abs(objectives[gi] - distance) <= 1e-10 * distance)
            alpha = wiener_coefficients(y_c, rows, comp, 0.0)
            resid = y_c - alpha @ (rows @ comp.basis).T
            assert np.all(
                np.abs(objectives[gi] - np.einsum("sm,sm->s", resid, resid))
                <= 1e-10 * distance
            )
        # A signal of a class lies in its projected range: an exact fit
        # there, a full residual elsewhere.
        batch = sample_signals(model, 60, seed=75)
        labels = inference._class_objectives(
            batch.signals @ rows.T, rows, model, 0.0
        )[1]
        assert np.array_equal(labels + 1, batch.labels)

    def test_zero_noise_full_rank_projections_fit_exactly_and_tie_to_class_1(self):
        n, m = 8, 5
        model = shifted_model(random_model(n, 4, seed=76), seed=77)
        rows = random_orthonormal(m, n, seed=78).rows
        y = np.random.default_rng(79).standard_normal((50, m))
        objectives, labels, coefficients = inference._class_objectives(
            y, rows, model, 0.0
        )
        assert np.all(objectives == 0.0)
        assert np.all(labels == 0)
        comp = model.components[0]
        fit = coefficients @ (rows @ comp.basis).T + rows @ comp.mean
        assert np.abs(fit - y).max() <= 1e-10 * np.abs(y).max()
        res = map_reconstruct(y[0], rows, model, 0.0)
        assert res.selected_class == 1
        assert np.all(res.objective_values == 0.0)
        assert map_em(y, rows, model, 0.0, kappa=1).priors.tolist() == [1, 0, 0, 0]


def pair_model():
    return synth_model_pair(8, 3, 30, seed=1)[0]


def entry_point(name, y, sigma2):
    """Run one E-step entry point on measurements y (S, 8) with identity rows."""
    model = pair_model()
    if name == "map_em":
        return map_em(y, np.eye(8), model, sigma2, kappa=1)
    if name == "map_reconstruct":
        return map_reconstruct(y[-1], np.eye(8), model, sigma2)
    return wiener_coefficients(y, np.eye(8), model.components[0], sigma2)


ENTRY_POINTS = ["map_em", "map_reconstruct", "wiener_coefficients"]


class TestEStepRejectsBadInputs:
    def signals(self):
        return sample_signals(pair_model(), 30, seed=2).signals.copy()

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_negative_sigma2(self, name):
        # map_em used to return a one-class model (priors [1, 0]).
        with pytest.raises(ValueError, match="sigma2 must be finite and >= 0, got -0.5"):
            entry_point(name, self.signals(), -0.5)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_nan_sigma2(self, name):
        with pytest.raises(ValueError, match="sigma2 must be finite and >= 0, got nan"):
            entry_point(name, self.signals(), np.nan)

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_infinite_sigma2(self, name):
        with pytest.raises(ValueError, match="sigma2 must be finite and >= 0, got inf"):
            entry_point(name, self.signals(), np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_measurement_in_map_em(self, bad):
        y = self.signals()
        y[17, 4] = bad
        with pytest.raises(ValueError, match="measurements must be finite, but signal 17 is not"):
            entry_point("map_em", y, 0.1)

    def test_non_finite_measurement_in_map_reconstruct(self):
        # Used to return class 1 with NaN objectives.
        y = self.signals()
        y[-1, 0] = np.nan
        with pytest.raises(ValueError, match="measurements must be finite, but signal 0 is not"):
            entry_point("map_reconstruct", y, 0.1)

    def test_non_finite_measurement_in_wiener_coefficients(self):
        y = self.signals()
        y[9, 7] = -np.inf
        with pytest.raises(ValueError, match="measurements must be finite, but signal 9 is not"):
            entry_point("wiener_coefficients", y, 0.1)
        with pytest.raises(ValueError, match="but signal 0 is not"):
            entry_point("wiener_coefficients", y[9], 0.1)


class TestShtRun:
    def test_first_block_is_sensed_first_and_budget_is_kept(self):
        # Block 1 is the empty-history design the model keeps: a later
        # direct call returns the very array that was sensed first.
        model = random_model(8, 2, seed=5)
        x = np.ones(8)
        sensed = []

        def oracle(rows):
            sensed.append(rows)
            return rows @ x

        outcome = sht_run(oracle, model, 2, 4, 0.01, sigma2=0.1)
        assert outcome.state.n_measurements == sum(len(rows) for rows in sensed) <= 4
        kept = design_classification_block(AcquisitionState.initial(model, 0.1, 2), model, 2)
        assert sensed[0] is kept and not kept.flags.writeable

    def test_a_budget_of_one_block_can_decide(self):
        # Wald's test checks after every observation: with b = 4 and a
        # budget of 4 the first block alone decides at 20 dB.
        model, _ = synth_model_pair(16, 10.0, 20.0, seed=0)
        sigma2 = 0.01 * sum(float(np.sum(c.eigenvalues)) for c in model.components) / (2 * 16)
        batch = sample_signals(model, 5, seed=1)
        for x, label in zip(batch.signals, batch.labels):
            outcome = sht_run(lambda rows: rows @ x, model, 4, 4, 0.01, sigma2=sigma2)
            assert outcome.decided and outcome.state.n_measurements == 4
            assert outcome.final_class == outcome.decided_class == label

    @pytest.mark.parametrize("b", [1, 4])
    @pytest.mark.parametrize("p_e", [0.05, 0.2])
    def test_decided_error_rate_stays_within_the_target(self, p_e, b):
        # Wald's threshold eta = (1 - P_e) / P_e bounds the error among
        # decided signals by P_e; allow a one-sided 3-sigma binomial margin.
        # The test runs from the first block on, which at b = 4 decides
        # after 4 of the 8 measurements.
        model, _ = synth_model_pair(16, 10.0, 20.0, seed=0)
        # 0 dB: sigma2 is the mean per-sample energy of the two equal classes.
        sigma2 = sum(float(np.sum(c.eigenvalues)) for c in model.components) / (2 * 16)
        batch = sample_signals(model, 400, seed=1)
        noise = np.random.default_rng(2).standard_normal((400, 8))
        decided = wrong = 0
        for i, (x, label) in enumerate(zip(batch.signals, batch.labels)):
            draws = iter(np.sqrt(sigma2) * noise[i])
            outcome = sht_run(
                lambda rows: rows @ x + next(draws),
                model,
                b,
                8,
                p_e,
                sigma2=sigma2,
                seed=i,
            )
            if outcome.decided:
                decided += 1
                wrong += outcome.final_class != label
        assert decided >= 90
        assert wrong / decided <= p_e + 3.0 * np.sqrt(p_e * (1.0 - p_e) / decided)

    @staticmethod
    def pairwise_winner(scores, log_eta):
        # The former rule, the reference: the first class whose log ratio
        # to every other class exceeds log eta.
        with np.errstate(invalid="ignore"):
            ratios = scores[:, None] - scores[None, :]
            margins = ratios + np.diag(np.full(scores.size, np.inf))
            winners = np.flatnonzero(margins.min(axis=1) > log_eta)
        return int(winners[0]) if winners.size else None

    def test_leading_class_decides_as_the_pairwise_rule(self):
        log_eta = float(np.log(0.99 / 0.01))
        up, down = np.nextafter(log_eta, np.inf), np.nextafter(log_eta, -np.inf)
        inf = np.inf
        cases = [
            [3.0, 3.0], [log_eta + 5, log_eta + 5, 0.0], [0.0, 9.0, 9.0],  # ties
            [0.0, -inf], [-inf, 2.0, -inf], [-inf, 3.0, 3.0 - 2 * log_eta],  # zero priors
            [-7.0],  # G = 1
            [log_eta, 0.0], [up, 0.0], [down, 0.0],  # at log eta, one step on either side
            [0.0, -log_eta], [0.0, -up], [0.0, -down],
        ]
        for runner_up in (-812.25, 1e3, 3.1e5):  # the difference rounds
            cases += [[runner_up + t, runner_up] for t in (log_eta, up, down)]
        rng = np.random.default_rng(0)
        cases += list(rng.normal(scale=10.0, size=(500, 10)))
        cases += list(np.round(rng.normal(scale=10.0, size=(500, 10))))  # ties among ten
        decided = 0
        for scores in map(np.array, cases):
            leader, _ = inference._leading_class(scores, log_eta)
            assert leader == self.pairwise_winner(scores, log_eta), scores
            decided += leader is not None
        assert decided > 100
        at = [inference._leading_class(np.array([t, 0.0]), log_eta) for t in (down, log_eta, up)]
        assert at == [(None, down), (None, log_eta), (0, up)]
        assert inference._leading_class(np.array([3.0, 3.0]), log_eta) == (None, 0.0)
        assert inference._leading_class(np.array([-7.0]), log_eta) == (0, np.inf)

    @pytest.mark.parametrize("signal, stop", [(0, "decided"), (1, "budget")])
    def test_logs_one_record_per_run_and_the_same_outcome_either_way(
        self, signal, stop, caplog
    ):
        model, _ = synth_model_pair(16, 10.0, 20.0, seed=0)
        sigma2 = sum(float(np.sum(c.eigenvalues)) for c in model.components) / (2 * 16)
        x = sample_signals(model, 2, seed=1).signals[signal]

        def run():
            return sht_run(lambda rows: rows @ x, model, 1, 3, 0.01, sigma2=sigma2)

        assert not logging.getLogger("gmmsense").isEnabledFor(logging.DEBUG)
        quiet = run()
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            logged = run()
        (record,) = [r for r in caplog.records if r.getMessage().startswith("sht_run ")]
        fields = dict(kv.split("=") for kv in record.getMessage().split()[1:])
        scores = logged.state.class_log_likelihoods + np.log(model.priors)
        assert fields == {
            "b": "1",
            "blocks": str(logged.state.n_measurements),
            "measurements": str(logged.state.n_measurements),
            "stop": stop,
            "class": str(logged.final_class),
            "margin": f"{inference._leading_class(scores, np.log(99.0))[1]:.6g}",
        }
        assert logged.decided == (stop == "decided")
        assert logged.decided_class == (logged.final_class if logged.decided else None)
        assert (quiet.final_class, quiet.decided) == (logged.final_class, logged.decided)
        for name in ("rows", "measurements", "class_log_likelihoods"):
            assert np.array_equal(getattr(quiet.state, name), getattr(logged.state, name))
