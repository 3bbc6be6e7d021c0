import tracemalloc

import numpy as np
import pytest

from helpers import lowrank_component, random_model, random_spd
from gmmsense._linalg import NonSymmetricMatrixError, NotPositiveSemidefiniteError
from gmmsense.adaptive import AcquisitionState
from gmmsense.design import SensingMatrix
from gmmsense.model import (
    GaussianComponent,
    GmmModel,
    SignalBatch,
    _TAG_CLASSES,
    _TAG_SHAPES,
    _mean_energy,
    _readonly,
    _spd_eigendecompose,
    m_step_update,
    sample_signals,
)


class TestSpdEigendecompose:
    def test_identity(self):
        basis, vals = _spd_eigendecompose(np.eye(3))
        assert np.array_equal(vals, np.ones(3))
        assert np.abs(basis - np.eye(3)).max() < 1e-12

    def test_already_diagonal(self):
        basis, vals = _spd_eigendecompose(np.diag([4.0, 1.0]))
        assert np.allclose(vals, [4.0, 1.0])
        assert np.abs(basis - np.eye(2)).max() < 1e-12

    def test_random_roundtrip(self):
        a = random_spd(6, seed=11)
        basis, vals = _spd_eigendecompose(a)
        recon = (basis * vals) @ basis.T
        assert np.linalg.norm(recon - a) <= 1e-10 * np.linalg.norm(a)

    def test_rejects_asymmetric(self):
        a = np.eye(4)
        a[0, 1] = 0.01
        with pytest.raises(NonSymmetricMatrixError):
            _spd_eigendecompose(a)

    def test_rejects_negative_definite_direction(self):
        a = np.diag([1.0, -1e-6])
        with pytest.raises(NotPositiveSemidefiniteError):
            _spd_eigendecompose(a)

    def test_clamps_rounding_negatives(self):
        a = np.diag([1.0, -1e-12])
        _, vals = _spd_eigendecompose(a)
        assert vals[1] == 0.0

    def test_descending_and_nonnegative(self):
        _, vals = _spd_eigendecompose(random_spd(9, seed=12, cond=1e6))
        assert np.all(np.diff(vals) <= 0)
        assert np.all(vals >= 0)

    def test_lowrank_reports_true_rank(self):
        # Rank 6 with lambda_max = 1e4: the 10 null directions come out of
        # eigh as noise of order 1e-12 and must be stored as exact zeros.
        cov = lowrank_component(1, 16, 6).covariance
        _, vals = _spd_eigendecompose(cov)
        assert np.count_nonzero(vals) == 6
        assert np.all(vals[6:] == 0.0)

    def test_keeps_small_eigenvalue_above_rank_tolerance(self):
        # 1e-13 > 2 * eps * 1.0, so it is spectrum, not rounding noise.
        _, vals = _spd_eigendecompose(np.diag([1.0, 1e-13]))
        assert vals[1] == 1e-13

    def test_zeroes_rounding_positives(self):
        # 1e-17 <= 2 * eps * 1.0.
        _, vals = _spd_eigendecompose(np.diag([1.0, 1e-17]))
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
        # 64-d classes and prefixes whose row counts cross BLAS kernel sizes:
        # one matrix product over the batch would round a signal differently
        # with the batch size.
        model = random_model(64, 3, seed=31)
        full = sample_signals(model, 5000, seed=3)
        assert np.array_equal(sample_signals(model, 5000, seed=3).signals, full.signals)
        for n in (1, 2, 3, 7, 10, 33, 100, 257, 1000, 2049):
            part = sample_signals(model, n, seed=3)
            assert np.array_equal(part.signals, full.signals[:n]), n
            assert np.array_equal(part.labels, full.labels[:n]), n

    @pytest.mark.parametrize("n_signals", [1, 1000])
    def test_draws_from_two_streams_whatever_the_batch_size(self, n_signals, monkeypatch):
        model = random_model(4, 2, seed=5)
        real_default_rng, seeds = np.random.default_rng, []

        def recording_default_rng(seed=None):
            seeds.append(seed)
            return real_default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
        sample_signals(model, n_signals, seed=7)
        assert seeds == [[_TAG_CLASSES, 7], [_TAG_SHAPES, 7]]

    def test_zero_prior_class_is_never_drawn(self):
        comps = tuple(
            GaussianComponent.from_moments(np.zeros(2), np.eye(2), prior)
            for prior in (0.0, 0.5, 0.0, 0.5, 0.0)
        )
        batch = sample_signals(GmmModel(components=comps), 100000, seed=8)
        assert set(np.unique(batch.labels)) == {2, 4}


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_signals_rejected(self, bad):
        signals = np.zeros((3, 4))
        signals[1, 2] = bad
        with pytest.raises(ValueError, match="signals must be finite, but signal 1 is not"):
            SignalBatch(signals=signals)

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0), (3,)], ids=["no-signal", "no-sample", "1-d"])
    def test_empty_signals_rejected(self, shape):
        # (3, 0) was accepted, and sigma2_for_snr_db on it warned and returned NaN
        with pytest.raises(ValueError) as err:
            SignalBatch(signals=np.zeros(shape))
        assert str(err.value) == f"signals must be a nonempty (S, N) array, got {shape}"

    def test_non_finite_dc_offsets_rejected(self):
        with pytest.raises(ValueError, match="dc_offsets must be finite, but signal 2 is not"):
            SignalBatch(signals=np.zeros((3, 4)), dc_offsets=np.array([0.0, 1.0, np.nan]))


class TestMeanEnergy:
    @pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 23763])
    def test_chunked_squares_equal_the_whole_batch_bitwise(self, rows):
        x = np.random.default_rng(rows).normal(scale=30.0, size=(rows, 64))
        whole = float(np.mean(np.sum(x**2, axis=1)) / 64)
        assert _mean_energy(SignalBatch(signals=x)) == whole

    def test_no_batch_sized_temporary(self):
        # 23,763 x 64, the size of the patch training set: 12.2 MB of squares at once
        batch = SignalBatch(signals=np.random.default_rng(0).standard_normal((23763, 64)))
        tracemalloc.start()
        try:
            _mean_energy(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2e6


def frozen(a, dtype=float):
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def frozen_view_of(owner):
    view = owner[1:]
    view.setflags(write=False)
    return view


def record_arrays(make):
    """Inputs of one record of each kind, each record built by make from them."""
    comp = GaussianComponent.from_moments(np.arange(3.0), random_spd(3, seed=4))
    inputs = {
        "state": dict(
            rows=np.eye(3)[:2],
            measurements=np.array([0.5, -1.0]),
            sigma2=0.1,
            block_size=1,
            class_log_likelihoods=np.array([-2.0, -3.0]),
        ),
        "batch": dict(
            signals=np.arange(6.0).reshape(3, 2),
            labels=np.array([1, 2, 1]),
            dc_offsets=np.array([0.5, 1.5, 2.5]),
        ),
        "component": dict(
            mean=comp.mean, covariance=comp.covariance, basis=comp.basis,
            eigenvalues=comp.eigenvalues, prior=0.5,
        ),
        "sensing": dict(rows=np.eye(3)[1:]),
    }
    kinds = {"state": AcquisitionState, "batch": SignalBatch,
             "component": GaussianComponent, "sensing": SensingMatrix}
    for kind, kw in inputs.items():
        arrays = {k: make(v) for k, v in kw.items() if isinstance(v, np.ndarray)}
        yield kind, arrays, kinds[kind](**{**kw, **arrays})


class TestReadonly:
    def test_a_frozen_owner_is_shared(self):
        a = frozen([1.0, 2.0])
        assert _readonly(a) is a
        labels = frozen([1, 2], dtype=int)
        assert _readonly(labels, dtype=int) is labels

    def test_a_view_of_a_frozen_owner_is_shared(self):
        owner = frozen(np.arange(6.0).reshape(3, 2))
        row = owner[1]
        assert _readonly(row) is row

    @pytest.mark.parametrize("make", [
        lambda: np.arange(4.0),  # writable
        lambda: frozen_view_of(np.arange(4.0)),  # read-only view of a writable base
        lambda: frozen([1, 2, 3], dtype=np.float32),  # another dtype
        lambda: [1.0, 2.0, 3.0],  # not an array
        lambda: np.frombuffer(np.arange(3.0).tobytes()),  # base is bytes, not an ndarray
    ], ids=["writable", "view_of_writable", "dtype", "list", "frombuffer"])
    def test_anything_else_is_copied_and_frozen(self, make):
        a = make()
        out = _readonly(a)
        assert out is not a and not out.flags.writeable and out.dtype == float
        assert np.array_equal(out, np.asarray(a, dtype=float))
        if isinstance(a, np.ndarray):
            assert not np.shares_memory(out, a)

    def test_records_of_writable_inputs_keep_their_values(self):
        for kind, arrays, record in record_arrays(np.array):
            before = {k: getattr(record, k).copy() for k in arrays}
            for a in arrays.values():
                a += 1
            for k, value in before.items():
                assert np.array_equal(getattr(record, k), value), (kind, k)

    def test_records_of_frozen_inputs_share_them(self):
        for kind, arrays, record in record_arrays(lambda v: frozen(v, v.dtype)):
            for k, a in arrays.items():
                assert getattr(record, k) is a, (kind, k)
                assert np.shares_memory(getattr(record, k), a)

    def test_a_state_of_frozen_arrays_is_still_checked(self):
        kw = dict(
            rows=frozen(np.eye(2)),
            measurements=frozen([0.5, np.nan]),
            sigma2=0.1,
            block_size=1,
            class_log_likelihoods=frozen([0.0, 0.0]),
        )
        with pytest.raises(ValueError, match="measurements must be finite, but signal 0 is not"):
            AcquisitionState(**kw)
        kw["measurements"] = frozen([0.5, 1.0])
        kw["class_log_likelihoods"] = frozen([0.0, np.nan])
        with pytest.raises(ValueError, match="class log-likelihoods must be finite, but signal 0"):
            AcquisitionState(**kw)
