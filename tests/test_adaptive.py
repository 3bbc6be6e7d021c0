import dataclasses
import logging

import numpy as np
import pytest
import scipy.linalg

from helpers import lowrank_component, principal_angles, random_model, random_spd
from gmmsense import adaptive
from gmmsense._linalg import EIG_FLOOR_REL, orthonormalize_rows, sym_floored_eigh, symmetrize
from gmmsense.adaptive import (
    AcquisitionState,
    AscentOptions,
    ProjectedCovarianceError,
    _ascend,
    _batch_states,
    _bayes_posteriors,
    _class_weights,
    _gradient,
    _newton_on_sphere,
    _project,
    _row_gradients,
    _row_newton_matrix,
    _score,
    _spectral_start,
    _Trial,
    design_classification_block,
    design_reconstruction_block,
    measurement_log_likelihoods,
    posterior_matrices,
    separability_measure,
)
from gmmsense.design import eigen_sensing, random_orthonormal
from gmmsense.model import GaussianComponent, GmmModel, _freeze
from gmmsense.synthetic import synth_model_pair


def gradient_at(block, state, model):
    """The ascent's separability gradient at an orthonormal block."""
    post = posterior_matrices(state, model)
    return _gradient(_project(block, post), post.weights)


def row_point(row, post):
    """The _Trial Newton holds at a unit row of shape (N,) or (1, N)."""
    block = np.reshape(row, (1, -1))
    proj = _project(block, post)
    return _Trial(block, proj, _score(proj, post.weights))


def state_with_rows(model, rows, sigma2=0.0, measurements=None):
    state = AcquisitionState.initial(model, sigma2, block_size=rows.shape[0])
    if measurements is None:
        measurements = np.zeros(rows.shape[0])
    return state.append_block(rows, measurements, model)


def floored_class_model():
    """Two classes in N=5; class 1 has three eigenvalues below the floor.

    Returns the model and the eigenvectors q of class 1, whose eigenvalues
    are 4, 2, 1.5e-10, 0.2e-10 and 1e-10; the floor is 2.1e-10.
    """
    q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((5, 5)))
    tiny = (q * [4.0, 2.0, 1.5e-10, 0.2e-10, 1e-10]) @ q.T
    model = GmmModel(
        components=(
            GaussianComponent.from_moments(np.zeros(5), 0.5 * (tiny + tiny.T), 0.5),
            GaussianComponent.from_moments(np.zeros(5), np.diag([1.0, 3.0, 2.0, 1.5, 0.5]), 0.5),
        )
    )
    return model, q


def two_class_optimum(model, sigma2, b):
    """scipy's top-b generalized eigenvectors of (P_1, P_2) by f(lambda),
    as rows, and the sum of their f: the two-class empty-history optimum."""
    w1, w2 = model.priors
    n = model.dimension
    p1, p2 = (c.covariance + sigma2 * np.eye(n) for c in model.components)
    lam, vecs = scipy.linalg.eigh(p1, p2)
    f = 0.5 * (np.log(w1 * lam + w2) - w1 * np.log(lam))
    top = np.argsort(f)[::-1][:b]
    return vecs[:, top].T, f[top].sum()


def diag_model(*diags, priors=None):
    g = len(diags)
    priors = priors or [1.0 / g] * g
    comps = tuple(
        GaussianComponent.from_moments(
            np.zeros(len(d)), np.diag(np.asarray(d, dtype=float)), priors[i]
        )
        for i, d in enumerate(diags)
    )
    return GmmModel(components=comps)


class TestAcquisitionState:
    def test_initial_state_empty(self):
        model = random_model(5, 2, seed=0)
        state = AcquisitionState.initial(model, 0.1, block_size=2)
        assert state.n_measurements == 0
        assert np.array_equal(_class_weights(state, model), model.priors)
        assert np.array_equal(state.class_log_likelihoods, np.zeros(2))

    def test_append_requires_orthonormal_block(self):
        model = random_model(4, 2, seed=1)
        state = AcquisitionState.initial(model, 0.0, 1)
        with pytest.raises(ValueError):
            state.append_block(np.array([[1.0, 1.0, 0.0, 0.0]]), [0.5], model)

    def test_append_updates_posteriors_toward_likely_class(self):
        model = diag_model([100.0, 1.0], [1.0, 100.0])
        rows = np.array([[1.0, 0.0]])
        state = state_with_rows(model, rows, sigma2=0.0, measurements=[9.0])
        # |y| = 9 is typical under class 1 (var 100), extreme under class 2
        assert _class_weights(state, model)[0] > 0.99

    def test_stacked_blocks_need_not_be_mutually_orthogonal(self):
        model = random_model(4, 2, seed=2)
        rows = np.array([[1.0, 0.0, 0.0, 0.0]])
        state = state_with_rows(model, rows, measurements=[1.0])
        again = state.append_block(rows, [1.0], model)  # same direction again
        assert again.n_measurements == 2

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -0.5])
    def test_initial_rejects_a_sigma2_that_is_not_finite_and_nonnegative(self, sigma2):
        model = random_model(4, 2, seed=1)
        with pytest.raises(ValueError, match=f"sigma2 must be finite and >= 0, got {sigma2}"):
            AcquisitionState.initial(model, sigma2, 1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_append_rejects_a_non_finite_measurement(self, value):
        model = random_model(4, 2, seed=1)
        state = AcquisitionState.initial(model, 0.1, 1)
        with pytest.raises(ValueError, match="measurements must be finite"):
            state.append_block(np.array([[1.0, 0.0, 0.0, 0.0]]), [value], model)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_constructor_rejects_a_non_finite_measurement(self, value):
        with pytest.raises(ValueError, match="measurements must be finite, but signal 0 is not"):
            AcquisitionState(
                rows=np.eye(2),
                measurements=np.array([0.5, value]),
                sigma2=0.1,
                block_size=1,
                class_log_likelihoods=np.zeros(2),
            )

    def test_class_weights_are_the_priors_then_the_bayes_posteriors(self):
        model = random_model(4, 3, seed=1)
        state = AcquisitionState.initial(model, 0.1, 1)
        assert _class_weights(state, model) is model.priors
        assert posterior_matrices(state, model).weights is model.priors
        state = state.append_block(np.eye(4)[:1], [0.7], model)
        expected = _bayes_posteriors(state.class_log_likelihoods, model.priors).tobytes()
        assert _class_weights(state, model).tobytes() == expected
        weights = posterior_matrices(state, model).weights
        assert weights.tobytes() == expected and not weights.flags.writeable

    def test_rejects_likelihoods_not_matching_priors(self):
        # likelihoods of one class against the priors of a 3-class model
        # would broadcast silently; an empty history is rejected before the
        # design memo, which holds a design for the model's own state
        model = random_model(4, 3, seed=1)
        design_classification_block(AcquisitionState.initial(model, 0.1, 1), model, 1)
        empty = AcquisitionState(
            rows=np.empty((0, 4)),
            measurements=np.empty(0),
            sigma2=0.1,
            block_size=1,
            class_log_likelihoods=np.zeros(1),
        )
        measured = dataclasses.replace(
            empty, rows=np.eye(4)[:1], measurements=np.ones(1), class_log_likelihoods=[-1.0]
        )
        message = "^state likelihoods do not match the model's classes$"
        for state in (empty, measured):
            with pytest.raises(ValueError, match=message):
                posterior_matrices(state, model)
            with pytest.raises(ValueError, match=message):
                design_classification_block(state, model, 1)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_append_rejects_a_non_finite_row_before_its_gram(self, value):
        # A NaN row passed the orthonormality test and failed later as
        # "class priors must sum to 1"; an inf row warned in the Gram.
        model = random_model(4, 2, seed=1)
        state = AcquisitionState.initial(model, 0.1, 1)
        with pytest.raises(ValueError, match="^block rows must be finite$"):
            state.append_block(np.array([[0.0, value, 0.0, 0.0]]), [0.5], model)


def batch_fields(s=5, m=3, n=4, g=2, seed=0):
    """Writable stacked fields of s states sharing m orthonormal rows."""
    rng = np.random.default_rng(seed)
    loglik = rng.standard_normal((s, g))
    return {
        "rows": random_orthonormal(m, n, seed=seed).rows.copy(),
        "measurements": rng.standard_normal((s, m)),
        "sigma2": 0.1,
        "block_size": 2,
        "class_log_likelihoods": loglik,
    }


def one_record(fields, i):
    """Record i of stacked fields, as its own constructor arguments."""
    stacked = ("measurements", "class_log_likelihoods")
    return {k: v[i] if k in stacked else v for k, v in fields.items()}


def constructor_error(fields, i):
    with pytest.raises(ValueError) as info:
        AcquisitionState(**one_record(fields, i))
    return str(info.value)


def set_field(name, value, row=None):
    def bad(fields):
        if row is None:
            fields[name] = value
        else:
            fields[name][row] = value
    return bad


def empty_history_with_likelihood(row):
    def bad(fields):
        fields["rows"] = fields["rows"][:0]
        fields["measurements"] = fields["measurements"][:, :0]
        fields["class_log_likelihoods"][...] = 0.0
        fields["class_log_likelihoods"][row, 1] = -1.0
    return bad


class TestBatchStates:
    BAD_ROW = 2

    @pytest.mark.parametrize(
        "spoil",
        [
            set_field("class_log_likelihoods", [np.nan, -1.0], BAD_ROW),
            set_field("class_log_likelihoods", [np.inf, -1.0], BAD_ROW),
            empty_history_with_likelihood(BAD_ROW),
            set_field("rows", np.zeros((1, 3, 4))),
            set_field("sigma2", -1.0),
            set_field("sigma2", np.nan),
            set_field("block_size", 0),
        ],
        ids=[
            "nan-loglik", "inf-loglik", "empty-history-loglik",
            "rows-not-2d", "sigma2-negative", "sigma2-nan", "block-size-0",
        ],
    )
    def test_a_bad_record_raises_what_its_constructor_raises(self, spoil):
        # a lone record is signal 0; the batch names its bad signal
        fields = batch_fields()
        spoil(fields)
        with pytest.raises(ValueError) as info:
            _batch_states(*fields.values())
        alone = constructor_error(fields, self.BAD_ROW)
        assert str(info.value) == alone.replace("signal 0", f"signal {self.BAD_ROW}")

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_a_non_finite_measurement_names_its_signal(self, value):
        fields = batch_fields()
        fields["measurements"][self.BAD_ROW, 1] = value
        with pytest.raises(ValueError) as info:
            _batch_states(*fields.values())
        alone = constructor_error(fields, self.BAD_ROW)
        assert alone == "measurements must be finite, but signal 0 is not"
        assert str(info.value) == alone.replace("signal 0", f"signal {self.BAD_ROW}")

    @pytest.mark.parametrize("name", ["class_log_likelihoods"])
    def test_rejects_statistics_for_another_signal_count(self, name):
        fields = batch_fields()
        fields[name] = fields[name][:-1]
        with pytest.raises(ValueError, match=r"^5 signals of measurements, but class log-likeli"):
            _batch_states(*fields.values())

    def test_records_equal_constructor_built_ones(self):
        fields = batch_fields()
        _freeze(*(v for v in fields.values() if isinstance(v, np.ndarray)))
        states = _batch_states(*fields.values())
        assert len(states) == 5
        for i, state in enumerate(states):
            alone = AcquisitionState(**one_record(fields, i))
            assert type(state) is AcquisitionState
            for field in dataclasses.fields(AcquisitionState):
                got, want = getattr(state, field.name), getattr(alone, field.name)
                assert type(got) is type(want)
                if isinstance(want, np.ndarray):
                    assert np.array_equal(got, want) and got.dtype == want.dtype
                    assert not got.flags.writeable
                else:
                    assert got == want
            with pytest.raises(dataclasses.FrozenInstanceError):
                state.sigma2 = 0.0

    def test_records_share_the_rows_and_view_frozen_batch_arrays(self):
        fields = batch_fields()
        _freeze(*(v for v in fields.values() if isinstance(v, np.ndarray)))
        states = _batch_states(*fields.values())
        for i, state in enumerate(states):
            assert state.rows is fields["rows"]
            for name in ("measurements", "class_log_likelihoods"):
                assert getattr(state, name).base is fields[name]
                assert np.shares_memory(getattr(state, name), fields[name][i])

    def test_writable_inputs_are_copied_once(self):
        fields = batch_fields()
        kept = {k: np.copy(v) for k, v in fields.items()}
        states = _batch_states(*fields.values())
        for name in ("measurements", "class_log_likelihoods"):
            copy = getattr(states[0], name).base
            assert copy is not fields[name] and not copy.flags.writeable
            assert all(getattr(state, name).base is copy for state in states)
        assert all(state.rows is states[0].rows for state in states)
        assert states[0].rows is not fields["rows"]
        for name in ("rows", "measurements", "class_log_likelihoods"):
            fields[name][...] = -7.0
        for i, state in enumerate(states):
            for name, want in one_record(kept, i).items():
                assert np.array_equal(getattr(state, name), want)


class TestMeasurementLogLikelihoods:
    def test_batch_matches_one_vector_at_a_time(self):
        model = random_model(6, 3, seed=4)
        rows = random_orthonormal(3, 6, seed=5).rows
        y = np.random.default_rng(6).standard_normal((5, 3))
        batch = measurement_log_likelihoods(rows, y, model, 0.1)
        assert batch.shape == (5, 3)
        for yi, row in zip(y, batch):
            single = measurement_log_likelihoods(rows, yi, model, 0.1)
            assert np.allclose(row, single, rtol=1e-12, atol=0.0)

    def test_rejects_measurements_of_the_wrong_length(self):
        model = random_model(6, 2, seed=4)
        rows = random_orthonormal(3, 6, seed=5).rows
        with pytest.raises(ValueError, match="measurement length"):
            measurement_log_likelihoods(rows, np.zeros((5, 4)), model, 0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_rejects_a_non_finite_measurement(self, value):
        model = random_model(6, 2, seed=4)
        rows = random_orthonormal(3, 6, seed=5).rows
        y = np.zeros((5, 3))
        y[2, 1] = value
        with pytest.raises(ValueError, match="measurements must be finite, but signal 2 is not"):
            measurement_log_likelihoods(rows, y, model, 0.1)
        with pytest.raises(ValueError, match="measurements must be finite, but signal 0 is not"):
            measurement_log_likelihoods(rows, y[2], model, 0.1)

    @pytest.mark.parametrize("sigma2", [np.nan, np.inf, -5.0])
    def test_rejects_a_sigma2_that_is_not_finite_and_nonnegative(self, sigma2):
        model = random_model(6, 2, seed=4)
        rows = random_orthonormal(3, 6, seed=5).rows
        with pytest.raises(ValueError, match=f"sigma2 must be finite and >= 0, got {sigma2}"):
            measurement_log_likelihoods(rows, np.zeros(3), model, sigma2)


class TestBayesPosteriors:
    def test_batch_rows_match_one_history_at_a_time(self):
        loglik = np.array([[-1.0, -2.0, -4.0], [-1e4, -1e4 - 1.0, -3e4]])
        priors = np.array([0.5, 0.3, 0.2])
        batch = _bayes_posteriors(loglik, priors)
        for row, post in zip(loglik, batch):
            assert np.array_equal(post, _bayes_posteriors(row, priors))
        # normalized in the log domain: no underflow to 0/0
        assert np.allclose(batch.sum(axis=1), 1.0, rtol=0.0, atol=1e-15)
        expected = np.exp(loglik[0]) * priors
        assert np.allclose(batch[0], expected / expected.sum(), rtol=1e-14, atol=0.0)

    def test_zero_prior_stays_zero(self):
        post = _bayes_posteriors(np.array([[-5.0, 0.0]]), np.array([1.0, 0.0]))
        assert post.tolist() == [[1.0, 0.0]]


class TestPosteriorMatrices:
    def test_empty_history_zero_noise_returns_covariances(self):
        model = random_model(5, 3, seed=3)
        state = AcquisitionState.initial(model, 0.0, 1)
        post = posterior_matrices(state, model)
        assert np.array_equal(post.stack[:-1], model.covariance_stack)
        avg = np.einsum("g,gij->ij", model.priors, model.covariance_stack)
        assert np.abs(post.stack[-1] - avg).max() < 1e-14

    def test_empty_history_noise_inflates_diagonal(self):
        model = random_model(4, 2, seed=4)
        state = AcquisitionState.initial(model, 0.5, 1)
        post = posterior_matrices(state, model)
        expected = model.covariance_stack + 0.5 * np.eye(4)
        assert np.abs(post.stack[:-1] - expected).max() < 1e-14

    def test_full_history_captures_everything(self):
        model = random_model(4, 2, seed=5)
        rows = random_orthonormal(4, 4, seed=6).rows
        state = state_with_rows(model, rows)
        post = posterior_matrices(state, model)
        scale = post.scales[:-1, None, None]
        assert np.abs(post.stack[:-1] / scale).max() < 1e-7

    def test_determinant_factorization_of_stacked_covariance(self):
        # direct determinant of the stacked measurement covariance equals
        # the previous determinant times the block-projected posterior
        n, b = 6, 2
        model = random_model(n, 3, seed=7)
        hist = random_orthonormal(2, n, seed=8).rows
        block = random_orthonormal(b, n, seed=9).rows
        sigma2 = 0.3
        state = state_with_rows(model, hist, sigma2=sigma2)
        post = posterior_matrices(state, model)
        for g in range(model.n_components):
            cov = model.covariance_stack[g]
            full = np.vstack([hist, block])
            big = full @ cov @ full.T + sigma2 * np.eye(full.shape[0])
            prev = hist @ cov @ hist.T + sigma2 * np.eye(hist.shape[0])
            lhs = np.linalg.det(big)
            rhs = np.linalg.det(prev) * np.linalg.det(
                block @ post.stack[g] @ block.T
            )
            assert abs(lhs - rhs) <= 1e-8 * abs(lhs)

    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_stack_is_bitwise_the_out_of_place_expression(self, n_rows):
        # the stack is conditioned in place; it must equal, bit for bit,
        # the expression that concatenates the mixture average to the class
        # covariances, conditions and symmetrizes out of place
        n, sigma2 = 8, 0.2
        model = random_model(n, 4, seed=90)
        rows = random_orthonormal(3, n, seed=91).rows[:n_rows]
        state = AcquisitionState.initial(model, sigma2, 1)
        if n_rows:
            state = state.append_block(rows, [0.4, -1.3, 2.2], model)
        post = posterior_matrices(state, model)
        covs = model.covariance_stack
        avg = np.einsum("g,gij->ij", _class_weights(state, model), covs)
        covs = np.concatenate([covs, avg[None]])
        if n_rows:
            a = covs @ rows.T
            vals, vecs = sym_floored_eigh(np.swapaxes(a, -1, -2) @ rows.T + sigma2 * np.eye(3))
            inv = (vecs / vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
            expected = symmetrize(covs - a @ inv @ np.swapaxes(a, -1, -2) + sigma2 * np.eye(n))
        else:
            expected = symmetrize(covs + sigma2 * np.eye(n))
        assert post.stack.tobytes() == expected.tobytes()
        scales = np.diagonal(covs, axis1=-2, axis2=-1).max(axis=-1) + sigma2
        assert post.scales.tobytes() == scales.tobytes()
        assert not post.stack.flags.writeable and not post.scales.flags.writeable

    def test_rejects_zero_scale_class(self):
        zero = GaussianComponent(
            mean=np.zeros(3),
            covariance=np.zeros((3, 3)),
            basis=np.eye(3),
            eigenvalues=np.zeros(3),
            prior=0.5,
        )
        healthy = GaussianComponent.from_moments(
            np.zeros(3), np.eye(3), prior=0.5
        )
        model = GmmModel(components=(zero, healthy))
        state = AcquisitionState.initial(model, 0.0, 1)
        block = np.array([[1.0, 0.0, 0.0]])
        with pytest.raises(ProjectedCovarianceError) as err:
            separability_measure(block, state, model)
        assert err.value.class_index == 1


class TestSeparabilityMeasure:
    def test_identical_covariances_give_exact_zero(self):
        cov = random_spd(4, seed=10)
        a = GaussianComponent.from_moments(np.zeros(4), cov, 0.5)
        model = GmmModel(components=(a, a.with_prior(0.5)))
        state = AcquisitionState.initial(model, 0.0, 1)
        block = random_orthonormal(1, 4, seed=11).rows
        assert separability_measure(block, state, model) == 0.0

    def test_single_class_gives_exact_zero(self):
        model = random_model(5, 1, seed=12)
        state = AcquisitionState.initial(model, 0.0, 2)
        block = random_orthonormal(2, 5, seed=13).rows
        assert separability_measure(block, state, model) == 0.0

    def test_scalar_two_class_value(self):
        model = diag_model([4.0, 1.0], [1.0, 4.0])
        state = AcquisitionState.initial(model, 0.0, 1)
        block = np.array([[1.0, 0.0]])
        expected = 0.5 * (np.log(2.5) - 0.5 * np.log(4.0))
        value = separability_measure(block, state, model)
        assert abs(value - expected) < 1e-12
        assert abs(value - 0.11157) < 1e-4

    def test_invariant_under_block_rotation(self):
        model = random_model(8, 3, seed=14)
        hist = random_orthonormal(2, 8, seed=15).rows
        state = state_with_rows(model, hist, sigma2=0.2)
        block = random_orthonormal(3, 8, seed=16).rows
        base = separability_measure(block, state, model)
        rot = orthonormalize_rows(np.random.default_rng(17).standard_normal((3, 3)))
        rotated = separability_measure(rot @ block, state, model)
        assert abs(base - rotated) <= 1e-9 * max(1.0, abs(base))

    def test_nonadaptive_measure_nonnegative(self):
        for s in range(20):
            model = random_model(6, 3, seed=100 + s)
            state = AcquisitionState.initial(model, 0.0, 1)
            block = random_orthonormal(2, 6, seed=200 + s).rows
            assert separability_measure(block, state, model) >= -1e-10

    def test_rejects_non_orthonormal_candidate(self):
        model = random_model(4, 2, seed=18)
        state = AcquisitionState.initial(model, 0.0, 1)
        with pytest.raises(ValueError):
            separability_measure(np.array([[2.0, 0.0, 0.0, 0.0]]), state, model)


class TestSeparabilityGradient:
    def test_zero_for_identical_covariances(self):
        cov = random_spd(5, seed=19)
        a = GaussianComponent.from_moments(np.zeros(5), cov, 0.5)
        model = GmmModel(components=(a, a.with_prior(0.5)))
        state = AcquisitionState.initial(model, 0.0, 1)
        block = random_orthonormal(2, 5, seed=20).rows
        grad = gradient_at(block, state, model)
        assert np.array_equal(grad, np.zeros((2, 5)))

    def finite_difference(self, block, state, model, step=1e-5):
        post = posterior_matrices(state, model)
        g = np.zeros_like(block)
        for i in range(block.shape[0]):
            for j in range(block.shape[1]):
                plus = block.copy()
                plus[i, j] += step
                minus = block.copy()
                minus[i, j] -= step
                f_plus = _score(_project(plus, post), post.weights)
                f_minus = _score(_project(minus, post), post.weights)
                g[i, j] = (f_plus - f_minus) / (2.0 * step)
        return g

    def test_matches_finite_differences(self):
        model = random_model(8, 3, seed=21)
        hist = random_orthonormal(2, 8, seed=22).rows
        state = state_with_rows(model, hist, sigma2=0.4)
        block = random_orthonormal(2, 8, seed=23).rows
        grad = gradient_at(block, state, model)
        fd = self.finite_difference(block, state, model)
        mask = np.abs(grad) > 1e-8
        rel = np.abs(grad[mask] - fd[mask]) / np.abs(grad[mask])
        assert rel.max() <= 1e-4

    @pytest.mark.parametrize("b", [1, 2])
    def test_floored_eigenvalue_contributes_nothing(self, b):
        # the block's projected class-1 eigenvalue, 1.24e-10, lies below the
        # floor of 2.1e-10, so it is locally constant and the gradient must
        # still match central differences of the measure along tangents
        model, q = floored_class_model()
        state = AcquisitionState.initial(model, 0.0, b)
        rows = np.array([q[:, 2] + 0.5 * q[:, 3], q[:, 0] + 0.3 * q[:, 4]])
        block = orthonormalize_rows(rows[:b])
        post = posterior_matrices(state, model)
        proj = block @ post.stack[0] @ block.T
        assert np.linalg.eigvalsh(proj)[0] < EIG_FLOOR_REL * post.scales[0]
        grad = gradient_at(block, state, model)
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(3):
            d = rng.standard_normal(block.shape)
            d -= d @ block.T @ block  # tangent: orthogonal to the row space
            f_plus, f_minus = (
                separability_measure(orthonormalize_rows(block + s * d), state, model)
                for s in (h, -h)
            )
            fd = (f_plus - f_minus) / (2.0 * h)
            assert abs(np.sum(grad * d) - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_reconstruction_rows_are_stationary_for_their_objective(self):
        # at the top-eigenvector block of a posterior, the log-volume ascent
        # direction lies inside the span of the block itself
        n, m = 7, 3
        model = random_model(n, 1, seed=24)
        hist = random_orthonormal(2, n, seed=25).rows
        state = state_with_rows(model, hist, sigma2=0.3)
        rows = design_reconstruction_block(state, model, 1, m)
        post = posterior_matrices(state, model)
        p = post.stack[0]
        t = np.linalg.solve(rows @ p @ rows.T, rows @ p)
        t_perp = t - (t @ rows.T) @ rows
        assert np.abs(t_perp).max() <= 1e-6


class TestEntropySurrogateAssembly:
    def test_measure_equals_entropy_surrogate_difference(self):
        # Gaussian-upper-bound entropies of the stacked measurements minus
        # the class-conditional ones, differenced across one block, must
        # rebuild the separability measure (additive constants cancel)
        n, b, sigma2 = 6, 2, 0.25
        model = random_model(n, 3, seed=26)
        hist = random_orthonormal(2, n, seed=27).rows
        block = random_orthonormal(b, n, seed=28).rows
        w = model.priors

        def surrogate_gap(rows):
            m = rows.shape[0]
            if m == 0:
                return 0.0
            avg_cov = np.einsum("g,gij->ij", w, model.covariance_stack)
            mix = rows @ avg_cov @ rows.T + sigma2 * np.eye(m)
            h_mix = 0.5 * (m * (1 + np.log(2 * np.pi)) + np.linalg.slogdet(mix)[1])
            h_cls = 0.0
            for g in range(model.n_components):
                cov = rows @ model.covariance_stack[g] @ rows.T + sigma2 * np.eye(m)
                h_cls += w[g] * np.linalg.slogdet(cov)[1]
            h_cls = 0.5 * (m * (1 + np.log(2 * np.pi)) + h_cls)
            return h_mix - h_cls

        stacked = np.vstack([hist, block])
        oracle = surrogate_gap(stacked) - surrogate_gap(hist)
        # identity holds for a fixed weighting; build the state directly with
        # zero log-likelihoods, so the weights stay at the priors (to rounding)
        # instead of being Bayes-updated by the measurements
        state = AcquisitionState(
            rows=hist,
            measurements=np.zeros(hist.shape[0]),
            sigma2=sigma2,
            block_size=b,
            class_log_likelihoods=np.zeros(model.n_components),
        )
        value = separability_measure(block, state, model)
        assert abs(value - oracle) <= 1e-8


class TestDesignClassificationBlock:
    def test_flat_objective_returns_initialization(self):
        # identical classes: the closed form does not apply, every row
        # scores exactly 0 and the spectral start is returned unchanged
        cov = random_spd(5, seed=29)
        a = GaussianComponent.from_moments(np.zeros(5), cov, 0.5)
        model = GmmModel(components=(a, a.with_prior(0.5)))
        state = AcquisitionState.initial(model, 0.0, 1)
        post = posterior_matrices(state, model)
        for b in (1, 2):
            block = design_classification_block(state, model, b, seed=30)
            init = _spectral_start(post, post.weights, b)[0]
            assert np.array_equal(block, init)
            assert separability_measure(block, state, model) == 0.0

    def test_concentrates_on_discriminative_coordinates(self):
        model = diag_model(
            [100.0, 1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 100.0, 1.0, 1.0, 1.0, 1.0]
        )
        state = AcquisitionState.initial(model, 0.0, 1)
        row = design_classification_block(state, model, 1, seed=31)[0]
        assert row[0] ** 2 + row[1] ** 2 >= 0.99

    def test_beats_random_candidates(self):
        model = random_model(5, 2, seed=32, cond=300.0)
        state = AcquisitionState.initial(model, 0.0, 1)
        block = design_classification_block(state, model, 1, seed=33)
        best = separability_measure(block, state, model)
        for s in range(200):
            cand = random_orthonormal(1, 5, seed=5000 + s).rows
            assert best >= separability_measure(cand, state, model) - 1e-12

    def test_never_below_initialization(self):
        for s in range(10):
            model = random_model(6, 3, seed=600 + s)
            hist = random_orthonormal(2, 6, seed=700 + s).rows
            state = state_with_rows(model, hist, sigma2=0.1)
            block = design_classification_block(state, model, 2, seed=800 + s)
            init = random_orthonormal(2, 6, seed=800 + s).rows
            assert separability_measure(block, state, model) >= separability_measure(
                init, state, model
            )

    def test_returns_orthonormal_rows(self):
        model = random_model(7, 3, seed=37)
        state = AcquisitionState.initial(model, 0.0, 1)
        block = design_classification_block(state, model, 3, seed=38)
        assert np.abs(block @ block.T - np.eye(3)).max() < 1e-8


def steepest_ascent_score(state, model, seed):
    """Score of the single-row steepest ascent used before the Newton polish:
    200 accepted steps at most, each from twice the last accepted step and
    halved up to 40 times, stopping on a relative improvement below 1e-6."""
    post = posterior_matrices(state, model)
    w = post.weights
    row = random_orthonormal(1, model.dimension, seed=seed).rows
    proj = _project(row, post)
    score = _score(proj, w)
    step = 0.1
    for _ in range(200):
        grad = _gradient(proj, w)
        trial_step = step
        for _ in range(40):
            trial = (row + trial_step * grad) / np.linalg.norm(row + trial_step * grad)
            trial_proj = _project(trial, post)
            trial_score = _score(trial_proj, w)
            if trial_score > score:
                break
            trial_step *= 0.5
        else:
            break
        improvement = trial_score - score
        row, proj, score = trial, trial_proj, trial_score
        step = 2.0 * trial_step
        if improvement < 1e-6 * abs(score):
            break
    return score


class TestSingleRowKernel:
    @pytest.mark.parametrize("sigma2", [0.0, 0.1])
    def test_matches_the_block_kernel_on_one_row(self, sigma2):
        # G = 10 with a 3-row history; class 1 has rank 3 and the row is
        # orthogonal to its range, so at sigma2 = 0 its projection is
        # floored; class 2 has prior 0
        n = 8
        comps = list(random_model(n, 10, seed=95).components)
        low = lowrank_component(96, n, 3, scale=1.0, prior=comps[0].prior)
        comps[0] = low
        comps[2] = comps[2].with_prior(comps[1].prior + comps[2].prior)
        comps[1] = comps[1].with_prior(0.0)
        model = GmmModel(components=tuple(comps))
        hist = random_orthonormal(3, n, seed=97).rows
        state = state_with_rows(model, hist, sigma2=sigma2, measurements=[0.5, -0.2, 0.3])
        w = _class_weights(state, model)
        assert w[1] == 0.0 and np.all(np.delete(w, 1) > 0.0)
        post = posterior_matrices(state, model)
        _, vecs = np.linalg.eigh(low.covariance)
        x = np.random.default_rng(98).standard_normal(n)
        x -= vecs[:, -3:] @ (vecs[:, -3:].T @ x)  # orthogonal to class 1's range
        row = x / np.linalg.norm(x)
        point = row_point(row, post)
        # reference: the eigh of each 1 x 1 projection, as for b > 1 rows
        bp = row[None] @ post.stack
        vals, vecs = np.linalg.eigh(symmetrize(bp @ row[:, None]))
        floors = EIG_FLOOR_REL * post.scales[:, None]
        ref = (bp, np.maximum(vals, floors), vecs, vals > floors)
        _, c, ones, live = point.projection
        assert np.array_equal(live, ref[3]) and np.all(ones == 1.0)
        assert live[0, 0] == (sigma2 > 0.0) and live[1:].all()
        assert np.all(np.abs(c - ref[1]) <= 1e-12 * ref[1])
        score = _score(ref, w)
        assert abs(point.score - score) <= 1e-12 * abs(score)
        egrad = _gradient(ref, w)[0]
        expected = egrad - (row @ egrad) * row
        grad = _row_gradients(point, w)[2]
        assert np.abs(grad - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("n", [5, 7, 64])
    def test_identical_classes_give_an_exactly_zero_gradient(self, n):
        # every P_k x and x^T P_k x is formed matrix by matrix, so equal
        # matrices give equal terms and the weighted sum cancels exactly
        a = GaussianComponent.from_moments(np.zeros(n), random_spd(n, seed=99), 0.5)
        model = GmmModel(components=(a, a.with_prior(0.5)))
        state = AcquisitionState.initial(model, 0.1, 1)
        post = posterior_matrices(state, model)
        w = post.weights
        for s in range(5):
            row = random_orthonormal(1, n, seed=[100, s]).rows
            _, egrad, grad, slope = _row_gradients(row_point(row, post), w)
            assert not egrad.any() and not grad.any() and slope == 0.0
            assert _newton_on_sphere(row, post, w, 200)[-1] == "flat"

    def test_an_indefinite_start_raises(self):
        model = random_model(5, 3, seed=101)
        state = AcquisitionState.initial(model, 0.0, 1)
        post = posterior_matrices(state, model)
        row = random_orthonormal(1, 5, seed=102).rows
        stack = post.stack.copy()
        stack[1] -= 2.0 * post.scales[1] * np.outer(row[0], row[0])  # class 2 indefinite
        bad = post._replace(stack=stack)
        with pytest.raises(ProjectedCovarianceError) as err:
            _newton_on_sphere(row, bad, bad.weights, 200)
        assert err.value.class_index == 2


class TestSingleRowNewton:
    def test_hessian_matches_central_differences_of_the_gradient(self):
        # For a tangent d the Newton matrix A gives A d = slope d - P H d
        # (P = I - x x^T, H the Euclidean Hessian), and A rests on H x =
        # -egrad; central differences of the kernel's Euclidean gradient
        # give H d, so both parts of H d are checked.
        model = random_model(8, 4, seed=50)
        hist = random_orthonormal(2, 8, seed=51).rows
        state = state_with_rows(model, hist, sigma2=0.2, measurements=[0.3, -1.1])
        post = posterior_matrices(state, model)
        w = post.weights
        row = random_orthonormal(1, 8, seed=52).rows[0]
        point = row_point(row, post)
        u, egrad, _, slope = _row_gradients(point, w)
        a = _row_newton_matrix(point, u, egrad, slope, post.stack, np.append(-w, 1.0))

        def egrad_at(x):
            return _row_gradients(row_point(x, post), w)[1]

        rng = np.random.default_rng(53)
        h = 1e-5
        for _ in range(3):
            d = rng.standard_normal(8)
            d -= (d @ row) * row  # tangent to the sphere at row
            fd = (egrad_at(row + h * d) - egrad_at(row - h * d)) / (2.0 * h)
            tol = 1e-7 * np.abs(fd).max()
            assert np.abs(slope * d - a @ d - (fd - (fd @ row) * row)).max() <= tol
            assert abs(fd @ row + egrad @ d) <= tol

    @pytest.mark.parametrize("floored", [True, False])
    def test_riemannian_hessian_matches_central_differences_on_the_sphere(self, floored):
        # with class 1 floored the Euclidean gradient has a radial part
        # (slope 1/2), which the Riemannian Hessian must subtract
        model, q = floored_class_model()
        state = AcquisitionState.initial(model, 0.0, 1)
        post = posterior_matrices(state, model)
        w = post.weights
        pick = (3, 4) if floored else (0, 4)
        row = orthonormalize_rows((q[:, pick[0]] + 0.5 * q[:, pick[1]])[None, :])[0]
        point = row_point(row, post)
        assert point.projection[3][0, 0] == (not floored)
        u, egrad, _, slope = _row_gradients(point, w)
        assert abs(slope - (0.5 if floored else 0.0)) <= 1e-12
        a = _row_newton_matrix(point, u, egrad, slope, post.stack, np.append(-w, 1.0))
        assert np.abs(a @ row - row).max() <= 1e-12 * np.abs(a).max()

        def sphere_gradient(v):
            v = v / np.linalg.norm(v)
            return _row_gradients(row_point(v, post), w)[2]

        rng = np.random.default_rng(67)
        h = 1e-6
        for _ in range(3):
            d = rng.standard_normal(5)
            d -= (d @ row) * row
            fd = (sphere_gradient(row + h * d) - sphere_gradient(row - h * d)) / (2.0 * h)
            fd -= (fd @ row) * row
            assert np.abs(-a @ d - fd).max() <= 1e-6 * np.abs(fd).max()

    @pytest.mark.parametrize("g", [2, 4])
    def test_the_returned_score_is_the_measure_of_the_returned_row(self, g):
        # Newton scores its iterates through _project and _score, so the
        # score it returns is separability_measure's of its row, bitwise
        model = random_model(16, g, seed=130 + 10 * g)
        hist = random_orthonormal(2, 16, seed=131).rows
        state = state_with_rows(model, hist, sigma2=0.05, measurements=[0.7, -0.4])
        post = posterior_matrices(state, model)
        for s in range(10):
            start = random_orthonormal(1, 16, seed=[132, s]).rows
            row, score, _, steps, *_ = _newton_on_sphere(start, post, post.weights, 200)
            assert steps > 0
            assert score == separability_measure(row, state, model)

    def test_ten_classes_reach_a_stationary_row_at_least_as_good_as_the_ascent(self, caplog):
        # the design stops where its next Newton step predicts no gain the
        # score can see, so polishing the row again takes no step
        model = random_model(8, 10, seed=54)
        hist = random_orthonormal(2, 8, seed=55).rows
        state = state_with_rows(model, hist, sigma2=0.05, measurements=[0.4, -0.2])
        post = posterior_matrices(state, model)
        for s in range(5):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="gmmsense"):
                row = design_classification_block(state, model, 1, seed=[56, s])
            assert "stop=gain" in caplog.records[0].getMessage()
            assert abs(np.linalg.norm(row) - 1.0) <= 1e-15
            again, _, _, steps, *_, reason = _newton_on_sphere(row, post, post.weights, 200)
            assert np.array_equal(again, row) and (steps, reason) == (0, "gain")
            score = separability_measure(row, state, model)
            assert score >= steepest_ascent_score(state, model, [56, s])

    def test_ten_classes_reach_the_gradient_tolerance_from_the_spectral_start(self, caplog):
        model = random_model(8, 10, seed=54)
        hist = random_orthonormal(2, 8, seed=55).rows
        state = state_with_rows(model, hist, sigma2=0.05, measurements=[0.4, -0.2])
        post = posterior_matrices(state, model)
        w = post.weights
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            row = design_classification_block(state, model, 1, seed=56)
        fields = dict(kv.split("=") for kv in caplog.records[0].getMessage().split()[1:])
        assert (fields["start"], fields["stop"]) == ("spectral", "gain")
        assert int(fields["steps"]) > 0
        start = _spectral_start(post, w, 1)[0]
        polished = _newton_on_sphere(start, post, w, 200)
        assert np.array_equal(row, polished[0]) and polished[-1] == "gain"
        again = _newton_on_sphere(row, post, w, 200)
        assert np.array_equal(again[0], row) and (again[3], again[-1]) == (0, "gain")

    def test_two_classes_reach_the_closed_form(self):
        # P_1 = P_2 + Q with Q positive definite puts every generalized
        # eigenvalue above 1, where the measure increases with the Rayleigh
        # quotient, so the top eigenvector is the only local maximum. The
        # design returns it in closed form; the spectral start must return
        # it too, and the Newton polish, run here directly from random
        # starts, must reach it.
        n, w1, w2 = 6, 0.3, 0.7
        p2 = random_spd(n, seed=57)
        p1 = p2 + 0.5 * random_spd(n, seed=58)
        model = GmmModel(
            components=(
                GaussianComponent.from_moments(np.zeros(n), p1, w1),
                GaussianComponent.from_moments(np.zeros(n), p2, w2),
            )
        )
        lam, vecs = scipy.linalg.eigh(p1, p2)
        f = 0.5 * (np.log(w1 * lam + w2) - w1 * np.log(lam))
        best = vecs[:, np.argmax(f)] / np.linalg.norm(vecs[:, np.argmax(f)])
        state = AcquisitionState.initial(model, 0.0, 1)
        post = posterior_matrices(state, model)
        w = post.weights
        closed = design_classification_block(state, model, 1)[0]
        assert 1.0 - abs(closed @ best) <= 1e-9
        assert 1.0 - abs(_spectral_start(post, w, 1)[0][0] @ best) <= 1e-9
        for s in range(5):
            row = random_orthonormal(1, n, seed=[59, s]).rows
            row, *_, reason = _newton_on_sphere(row, post, w, 200)
            assert reason == "gain"
            again = _newton_on_sphere(row, post, w, 200)
            assert np.array_equal(again[0], row) and (again[3], again[-1]) == (0, "gain")
            assert 1.0 - abs(row[0] @ best) <= 1e-9
            assert abs(separability_measure(row, state, model) - f.max()) <= 1e-9


def doubling_ascent(state, model, b, seed):
    """The b-row ascent with the doubling rule: every line search after the
    first starts from twice the last accepted step. 200 accepted steps at
    most, halved up to 40 times, stopping on a zero gradient or a relative
    improvement below 1e-6. Returns the accepted steps and the final
    gradient norm tangent to the row space."""
    post = posterior_matrices(state, model)
    w = post.weights
    block = random_orthonormal(b, model.dimension, seed=seed).rows
    proj = _project(block, post)
    score = _score(proj, w)
    step, steps = 0.1, 0
    for _ in range(200):
        grad = _gradient(proj, w)
        if np.abs(grad).max() == 0.0:
            break
        trial_step = step
        for _ in range(40):
            trial = orthonormalize_rows(block + trial_step * grad)
            trial_proj = _project(trial, post)
            trial_score = _score(trial_proj, w)
            if trial_score > score:
                break
            trial_step *= 0.5
        else:
            break
        improvement = trial_score - score
        block, proj, score = trial, trial_proj, trial_score
        step = 2.0 * trial_step
        steps += 1
        if improvement < 1e-6 * abs(score):
            break
    grad = _gradient(proj, w)
    return steps, np.linalg.norm(grad - grad @ block.T @ block)


class TestMultiRowDesign:
    @pytest.mark.parametrize("sigma2", [0.01, 0.1])
    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_two_classes_with_empty_history_match_scipy(self, b, sigma2):
        n = 10
        for seed in (70, 72, 73):
            model = random_model(n, 2, seed=seed)
            w1, w2 = model.priors
            assert w1 != w2
            p1, p2 = (c.covariance + sigma2 * np.eye(n) for c in model.components)
            lam, vecs = scipy.linalg.eigh(p1, p2)
            f = 0.5 * (np.log(w1 * lam + w2) - w1 * np.log(lam))
            top = np.argsort(f)[::-1][:b]
            state = AcquisitionState.initial(model, sigma2, b)
            block = design_classification_block(state, model, b, seed=71)
            assert np.array_equal(block, design_classification_block(state, model, b, seed=72))
            assert np.abs(block @ block.T - np.eye(b)).max() <= 1e-12
            assert principal_angles(block, vecs[:, top].T).max() <= 1e-8
            score = separability_measure(block, state, model)
            assert abs(score - f[top].sum()) <= 1e-10
            for s in range(200):
                cand = random_orthonormal(b, n, seed=[seed, s]).rows
                assert score >= separability_measure(cand, state, model)

    @pytest.mark.parametrize("sigma2", [0.01, 0.1])
    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_spectral_start_spans_the_closed_form_with_empty_history(self, b, sigma2):
        # with an empty history the mixture posterior is w_1 P_1 + w_2 P_2,
        # so the pencil (Pavg, P_gamma) has the generalized eigenvectors of
        # (P_1, P_2), and single-row scores rank them by f(lambda): the
        # design returns the spectral start itself
        for seed in (70, 72, 73):
            model = random_model(10, 2, seed=seed)
            state = AcquisitionState.initial(model, sigma2, b)
            post = posterior_matrices(state, model)
            start = _spectral_start(post, post.weights, b)[0]
            assert np.abs(start @ start.T - np.eye(b)).max() <= 1e-12
            assert principal_angles(start, two_class_optimum(model, sigma2, b)[0]).max() <= 1e-8
            assert np.array_equal(design_classification_block(state, model, b), start)

    @pytest.mark.parametrize("sigma2", [0.01, 10.0])
    @pytest.mark.parametrize("b", [1, 3, 8])
    @pytest.mark.parametrize("priors", [(0.5, 0.5), (0.3, 0.7)], ids=["equal", "gamma_2"])
    def test_two_class_design_scores_the_top_f_sum(self, priors, b, sigma2, caplog):
        # equal priors factor class 1's pencil, 0.3/0.7 class 2's
        for seed in (70, 72, 73):
            comps = random_model(10, 2, seed=seed).components
            model = GmmModel(components=tuple(c.with_prior(w) for c, w in zip(comps, priors)))
            state = AcquisitionState.initial(model, sigma2, b)
            with caplog.at_level(logging.DEBUG, logger="gmmsense"):
                block = design_classification_block(state, model, b)
            assert "start=closed_form" in caplog.records[-1].getMessage()
            expected = two_class_optimum(model, sigma2, b)[1]
            score = separability_measure(block, state, model)
            assert abs(score - expected) <= 1e-10 * abs(expected)

    def test_two_classes_with_a_measured_row_are_polished(self, caplog):
        model = random_model(10, 2, seed=70)
        state = state_with_rows(model, random_orthonormal(1, 10, seed=71).rows, 0.01, [0.3])
        post = posterior_matrices(state, model)
        for b in (1, 3):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="gmmsense"):
                block = design_classification_block(state, model, b)
            fields = dict(kv.split("=") for kv in caplog.records[0].getMessage().split()[1:])
            assert fields["start"] == "spectral" and fields["stop"] == ("gain" if b == 1 else "tol")
            start = _spectral_start(post, post.weights, b)[0]
            assert separability_measure(block, state, model) > separability_measure(
                start, state, model
            )

    @pytest.mark.parametrize("b", [1, 4])
    def test_zero_noise_history_designs_on_the_unmeasured_directions(self, b, caplog):
        # sigma2 = 0: every posterior is singular along the measured row, so
        # P_gamma has no Cholesky factor and the pencil is built on the
        # range of the mixture posterior. The seeded ascent reached 0.0018
        # (b = 1) and, stopping at max_iters with a gradient norm of 1.98,
        # 2.583 (b = 4) on this model.
        model, _ = synth_model_pair(64, 30, 46, seed=1)
        state = AcquisitionState.initial(model, 0.0, 1)
        first = design_classification_block(state, model, 1)
        state = state.append_block(first, [0.0], model)
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            block = design_classification_block(state, model, b)
        fields = dict(kv.split("=") for kv in caplog.records[0].getMessage().split()[1:])
        assert fields["start"] == "spectral" and fields["stop"] == ("gain" if b == 1 else "tol")
        assert np.abs(block @ first.T).max() <= 1e-8
        score = separability_measure(block, state, model)
        assert score >= {1: 0.00179867523824, 4: 2.58265482456}[b]

    @pytest.mark.parametrize(
        "case",
        [
            "low_rank_class_1", "low_rank_class_2", "shared_null", "floored", "identical",
            "zero_prior", "max_iters_0",
        ],
    )
    def test_two_classes_fall_back_to_the_seeded_ascent(self, case, caplog):
        # Where the closed form does not apply, the ascent starts from the
        # spectral start, or from the seeded block where the pencil of the
        # more likely class (class 1 on a tie) has no factor, not even on
        # the range of the mixture posterior. max_iters 0 returns the
        # starting block, here the closed form.
        n, b, sigma2, opts = 6, 2, 0.0, AscentOptions()
        spd = GaussianComponent.from_moments(np.zeros(n), random_spd(n, seed=75), 0.5)
        if case.startswith("low_rank"):
            # sigma2 = 0: the rank-3 class has no Cholesky factor (class 2)
            # or some lambda at rounding level (class 1)
            pair = (lowrank_component(76, n, 3), spd)
            comps = pair if case.endswith("1") else pair[::-1]
        elif case == "shared_null":
            # sigma2 = 0 and both classes on one 5-d subspace: the pencil is
            # built on the range of the mixture posterior
            basis = np.linalg.qr(np.random.default_rng(76).standard_normal((n, n)))[0][:, :5]
            covs = (symmetrize(basis @ random_spd(5, s) @ basis.T) for s in (76, 77))
            comps = tuple(GaussianComponent.from_moments(np.zeros(n), c, 0.5) for c in covs)
        elif case == "floored":
            # every lambda is positive, but the top rows project class 1
            # onto its eigenvalue floor
            comps = floored_class_model()[0].components
            n = 5
        elif case == "identical":
            # the spectral start scores exactly 0 and stops flat
            comps = (spd, spd)
        elif case == "zero_prior":
            other = random_model(n, 1, seed=77).components[0]
            comps = (spd.with_prior(1.0), other.with_prior(0.0))
        else:
            comps, opts = random_model(n, 2, seed=77).components, AscentOptions(0)
        model = GmmModel(components=comps)
        state = AcquisitionState.initial(model, sigma2, b)
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            block = design_classification_block(state, model, b, seed=78, opts=opts)
        (record,) = caplog.records
        stop = record.getMessage().split("stop=")[1]
        kind = record.getMessage().split("start=")[1].split()[0]
        if case == "max_iters_0":
            assert (kind, stop) == ("closed_form", "closed_form")
            assert np.array_equal(block, design_classification_block(state, model, b, seed=0))
            return
        post = posterior_matrices(state, model)
        start, direct = _spectral_start(post, post.weights, b)
        if case in ("low_rank_class_1", "floored"):
            assert start is None and kind == "seeded"
            start = random_orthonormal(b, n, seed=78).rows
        else:
            # only the shared null space keeps P_gamma from a direct factor
            assert kind == "spectral" and direct == (case != "shared_null")
        proj = _project(start, post)
        ascent = _ascend(start, proj, _score(proj, post.weights), post,
                         post.weights, opts.max_iters)
        assert np.array_equal(block, ascent[0]) and stop == ascent[-1]
        if case in ("identical", "zero_prior"):
            assert stop == "flat" and np.array_equal(block, start)

    @pytest.mark.parametrize("b", [2, 4])
    def test_barzilai_borwein_steps_beat_the_doubling_rule(self, b, caplog):
        model = random_model(9, 3, seed=74)
        hist = random_orthonormal(2, 9, seed=75).rows
        state = state_with_rows(model, hist, sigma2=0.05, measurements=[0.3, -0.4])
        steps, norms, old_steps, old_norms = [], [], [], []
        for s in range(10):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="gmmsense"):
                block = design_classification_block(state, model, b, seed=[74, s])
            fields = dict(kv.split("=") for kv in caplog.records[0].getMessage().split()[1:])
            steps.append(int(fields["steps"]))
            grad = gradient_at(block, state, model)
            norms.append(np.linalg.norm(grad - grad @ block.T @ block))
            old = doubling_ascent(state, model, b, [74, s])
            old_steps.append(old[0])
            old_norms.append(old[1])
        assert sum(steps) < sum(old_steps)
        assert np.median(norms) < np.median(old_norms)


class TestDesignLogging:
    def logged(self, caplog):
        """Fields of the one record the design logged, as strings."""
        (record,) = [r for r in caplog.records if r.name == "gmmsense"]
        return dict(item.split("=") for item in record.getMessage().split()[1:])

    @pytest.mark.parametrize("b", [1, 3])
    def test_one_record_per_block_and_bitwise_equal_rows(self, b, caplog):
        model = random_model(7, 4, seed=62)
        hist = random_orthonormal(2, 7, seed=63).rows
        state = state_with_rows(model, hist, sigma2=0.1, measurements=[0.2, 0.5])
        with caplog.at_level(logging.INFO, logger="gmmsense"):
            quiet = design_classification_block(state, model, b, seed=64)
        assert caplog.records == []
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            logged = design_classification_block(state, model, b, seed=64)
        assert np.array_equal(quiet, logged)
        fields = self.logged(caplog)
        assert int(fields["b"]) == b
        assert float(fields["score"]) == pytest.approx(
            separability_measure(logged, state, model), rel=1e-11
        )
        assert fields["start"] == "spectral"
        assert int(fields["steps"]) > 0
        assert fields["stop"] == ("gain" if b == 1 else "tol")

    @pytest.mark.parametrize(
        "identical, max_iters, stop",
        [(True, 200, "flat"), (False, 0, "max_iters")],
        ids=["flat", "max_iters"],
    )
    def test_stop_reason_of_a_returned_start(self, identical, max_iters, stop, caplog):
        # three classes, so that max_iters 0 is not met by the closed form
        if identical:
            a = GaussianComponent.from_moments(np.zeros(5), random_spd(5, seed=65), 0.5)
            model = GmmModel(components=(a, a.with_prior(0.5)))
        else:
            model = random_model(5, 3, seed=65)
        state = AcquisitionState.initial(model, 0.0, 1)
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            row = design_classification_block(
                state, model, 1, seed=66, opts=AscentOptions(max_iters)
            )
        post = posterior_matrices(state, model)
        start = _spectral_start(post, post.weights, 1)[0]
        assert np.array_equal(row, start)
        fields = self.logged(caplog)
        assert (fields["start"], fields["steps"], fields["stop"]) == ("spectral", "0", stop)

    @pytest.mark.parametrize("start", ["closed_form", "spectral", "seeded"])
    def test_each_start_is_logged_and_returned_at_max_iters_0(self, start, caplog):
        n, b = 6, 2
        if start == "closed_form":
            model = random_model(n, 2, seed=81)
            state = AcquisitionState.initial(model, 0.1, b)
        elif start == "spectral":
            model = random_model(n, 3, seed=81)
            state = state_with_rows(model, random_orthonormal(1, n, seed=82).rows, 0.1)
        else:
            # sigma2 = 0 and a rank-3 most likely class: no pencil factor
            spd = GaussianComponent.from_moments(np.zeros(n), random_spd(n, seed=81), 0.4)
            model = GmmModel(components=(lowrank_component(82, n, 3, prior=0.6), spd))
            state = AcquisitionState.initial(model, 0.0, b)
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            block = design_classification_block(state, model, b, seed=83, opts=AscentOptions(0))
        fields = self.logged(caplog)
        assert (fields["start"], fields["steps"]) == (start, "0")
        post = posterior_matrices(state, model)
        if start == "closed_form":
            assert principal_angles(block, two_class_optimum(model, 0.1, b)[0]).max() <= 1e-8
        if start in ("closed_form", "spectral"):
            expected = _spectral_start(post, post.weights, b)[0]
        else:
            expected = random_orthonormal(b, n, seed=83).rows
        assert np.array_equal(block, expected)
        assert fields["stop"] == ("closed_form" if start == "closed_form" else "max_iters")

    @pytest.mark.parametrize("b", [1, 2])
    def test_decided_state_stops_flat_at_the_spectral_start(self, b, caplog):
        # a far-out measurement drives class 2's prior to exactly 0, so the
        # mixture posterior is bitwise class 1's and every row scores 0
        model = diag_model([100.0, 1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 3.0])
        state = state_with_rows(model, np.eye(4)[:1], sigma2=0.01, measurements=[1e3])
        assert tuple(_class_weights(state, model)) == (1.0, 0.0)
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            block = design_classification_block(state, model, b, seed=84)
        fields = self.logged(caplog)
        assert (fields["start"], fields["steps"], fields["stop"]) == ("spectral", "0", "flat")
        post = posterior_matrices(state, model)
        assert np.array_equal(block, _spectral_start(post, post.weights, b)[0])
        assert separability_measure(block, state, model) == 0.0

    def test_closed_form_logs_no_steps(self, caplog):
        model = random_model(6, 2, seed=79)
        state = AcquisitionState.initial(model, 0.1, 3)
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            block = design_classification_block(state, model, 3, seed=80)
        fields = self.logged(caplog)
        assert (fields["steps"], fields["stop"]) == ("0", "closed_form")
        assert float(fields["score"]) == pytest.approx(
            separability_measure(block, state, model), rel=1e-11
        )
        assert float(fields["grad_norm"]) <= 1e-10

    def test_kink_at_a_floored_class_stops_with_no_ascent(self, caplog):
        # the best rows push class 1's projection onto its floor, where the
        # measure has a kink: no step improves it although the gradient is
        # far from zero
        model, _ = floored_class_model()
        state = AcquisitionState.initial(model, 0.0, 1)
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            row = design_classification_block(state, model, 1, seed=0)
        fields = self.logged(caplog)
        assert fields["stop"] == "no_ascent" and float(fields["grad_norm"]) > 0.1
        start = random_orthonormal(1, 5, seed=0).rows
        assert separability_measure(row, state, model) > separability_measure(start, state, model)


    @pytest.mark.parametrize("b", [1, 2])
    def test_counts_rejected_trials_and_levenberg_raises(self, b, monkeypatch, caplog):
        # Every trial step is accepted (one per step) or rejected, and every
        # failed Cholesky of the Newton matrix raises the Levenberg shift.
        # The pencil has no factor here, so both designs start seeded.
        model, _ = floored_class_model()
        state = AcquisitionState.initial(model, 0.0, b)
        calls = {"trials": 0, "failed": 0}
        trial, cholesky = adaptive._trial, np.linalg.cholesky

        def counting_trial(*args):
            calls["trials"] += 1
            return trial(*args)

        def counting_cholesky(a):
            try:
                return cholesky(a)
            except np.linalg.LinAlgError:
                calls["failed"] += 1
                raise

        monkeypatch.setattr(adaptive, "_trial", counting_trial)
        monkeypatch.setattr(np.linalg, "cholesky", counting_cholesky)
        with caplog.at_level(logging.DEBUG, logger="gmmsense"):
            design_classification_block(state, model, b, seed=0)
        fields = self.logged(caplog)
        assert fields["start"] == "seeded"
        steps = int(fields["steps"])
        backtracks, shifts = int(fields["backtracks"]), int(fields["shifts"])
        assert backtracks > 0 and calls["trials"] == steps + backtracks
        assert calls["failed"] == shifts and (shifts > 0) == (b == 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda model, state: state.append_block(np.eye(5)[:1], [0.0], model),
         "block dimension does not match the state"),
        (lambda model, state: state.append_block(np.eye(4)[:2], [0.0], model),
         "measurement count does not match the block rows"),
        (lambda model, state: AcquisitionState(np.eye(4)[:1], np.zeros(2), 0.1, 1, np.zeros(2)),
         "measurements length must match the row count"),
        (lambda model, state: posterior_matrices(
            AcquisitionState.initial(random_model(3, 2, seed=1), 0.1), model),
         "state dimension does not match the model"),
        (lambda model, state: design_classification_block(state, model, 0),
         "need 1 <= b <= 4, got b=0"),
        (lambda model, state: design_classification_block(state, model, 5),
         "need 1 <= b <= 4, got b=5"),
        (lambda model, state: design_reconstruction_block(state, model, 1, 0),
         "need 1 <= m <= 4, got m=0"),
        (lambda model, state: design_reconstruction_block(state, model, 1, 5),
         "need 1 <= m <= 4, got m=5"),
    ],
    ids=["block-width", "measurement-count", "state-measurements", "posterior-dimension",
         "b-0", "b-above-n", "m-0", "m-above-n"],
)
def test_rejects_shapes_and_sizes_that_do_not_match(call, message):
    model = random_model(4, 2, seed=133)
    with pytest.raises(ValueError) as err:
        call(model, AcquisitionState.initial(model, 0.1))
    assert str(err.value) == message


class TestDesignReconstructionBlock:
    def test_empty_history_matches_eigen_sensing(self):
        model = random_model(6, 2, seed=39)
        state = AcquisitionState.initial(model, 0.0, 1)
        for g in (1, 2):
            rows = design_reconstruction_block(state, model, g, 3)
            ref = eigen_sensing(model.component(g), 3).rows
            assert principal_angles(rows, ref).max() <= 1e-8

    def test_first_row_orthogonal_to_exhausted_direction(self):
        model = random_model(6, 1, seed=40)
        comp = model.components[0]
        hist = comp.basis[:, :1].T  # top eigenvector already measured
        state = state_with_rows(model, hist, sigma2=0.0)
        rows = design_reconstruction_block(state, model, 1, 1)
        assert abs((rows @ hist.T).item()) <= 1e-8

    def test_beats_random_blocks_on_projected_volume(self):
        n, m = 6, 2
        model = random_model(n, 2, seed=41)
        hist = random_orthonormal(2, n, seed=42).rows
        state = state_with_rows(model, hist, sigma2=0.2)
        rows = design_reconstruction_block(state, model, 1, m)
        post = posterior_matrices(state, model)
        p = post.stack[0]
        best = np.linalg.det(rows @ p @ rows.T)
        for s in range(1000):
            cand = random_orthonormal(m, n, seed=9000 + s).rows
            assert best >= np.linalg.det(cand @ p @ cand.T) - 1e-12 * abs(best)

    def test_achieves_top_eigenvalue_product(self):
        n, m = 7, 3
        model = random_model(n, 1, seed=43)
        hist = random_orthonormal(2, n, seed=44).rows
        state = state_with_rows(model, hist, sigma2=0.1)
        rows = design_reconstruction_block(state, model, 1, m)
        assert np.abs(rows @ rows.T - np.eye(m)).max() <= 1e-10
        post = posterior_matrices(state, model)
        p = post.stack[0]
        vals = np.linalg.eigvalsh(p)[::-1]
        achieved = np.linalg.det(rows @ p @ rows.T)
        assert abs(achieved - np.prod(vals[:m])) <= 1e-8 * np.prod(vals[:m])

