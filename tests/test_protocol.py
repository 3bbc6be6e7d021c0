import collections
import dataclasses
import gc
import itertools
import json
import logging
import os
import weakref

import numpy as np
import pytest

from helpers import (
    fifo_of,
    lowrank_component,
    make_image,
    random_model,
    random_spd,
    write_pgm,
)
from gmmsense import adaptive, cli, inference, protocol
from gmmsense.adaptive import (
    AcquisitionState,
    AscentOptions,
    design_classification_block,
    design_reconstruction_block,
    measurement_log_likelihoods,
)
from gmmsense.design import eigen_sensing, random_orthonormal, rip_ab
from gmmsense.inference import map_classify, wiener_coefficients
from gmmsense.model import GaussianComponent, GmmModel, SignalBatch, _require_finite, sample_signals
from gmmsense.protocol import (
    _TAG_DESIGN,
    _TAG_NOISE,
    STEP1_METHODS,
    STEP2_METHODS,
    ExperimentReport,
    ProtocolConfig,
    run_two_step,
    sigma2_for_snr_db,
)
from gmmsense.serialize import load_model, read_matrix, write_matrix
from gmmsense.synthetic import synth_model_pair

N, M, K = 16, 6, 3
FAST = AscentOptions(max_iters=20)

ALL_PAIRS = tuple(itertools.product(STEP1_METHODS, STEP2_METHODS))
# The pairs the source paper evaluates.
PAPER_PAIRS = (
    ("random", "eigen_mse"),
    ("rip_ab", "eigen_mse"),
    ("ida", "eigen_mse"),
    ("ida", "mi_adaptive"),
    ("aida_sht", "mi_adaptive"),
)


@pytest.fixture(scope="module")
def model():
    return synth_model_pair(N, 3.0, 30.0, seed=1)[0]


@pytest.fixture(scope="module")
def batch(model):
    return sample_signals(model, 6, seed=2)


def config_for(step1, step2, k=K, sigma2=0.01, **kw):
    return ProtocolConfig(
        step1, step2, M=M, K=k, b=2, sigma2=sigma2, ascent=FAST, seed=3, **kw
    )


@pytest.mark.parametrize("pair", ALL_PAIRS, ids="+".join)
class TestEveryPair:
    def test_report_is_well_formed_and_reproducible(self, pair, model, batch):
        config = config_for(*pair)
        report = run_two_step(config, batch, model)
        assert report.n_signals == batch.n_signals
        assert np.all((report.classes >= 1) & (report.classes <= model.n_components))
        assert np.all((report.k_used >= 1) & (report.k_used <= M))
        assert np.all(np.isfinite(report.squared_errors))
        assert report.mean_k == float(np.mean(report.k_used))
        assert report.same_results(run_two_step(config, batch, model))

    def test_detection_budget_equal_to_total_uses_all_rows(self, pair, model, batch):
        report = run_two_step(config_for(*pair, k=M), batch, model)
        if pair[0] == "aida_sht":  # stops on its own, K is ignored
            assert np.all(report.k_used <= M)
        else:
            assert np.array_equal(report.k_used, np.full(batch.n_signals, M))

    def test_csv_row_has_one_field_per_column(self, pair, model, batch):
        report = run_two_step(config_for(*pair), batch, model)
        row = ExperimentReport.csv_row(report.to_json_dict())
        fields = row.split(",")
        assert len(fields) == len(ExperimentReport.CSV_HEADER.split(","))
        assert fields[0] == report.protocol


@pytest.mark.parametrize("step1", ["random", "rip_ab", "ida"])
def test_shared_detection_states_share_the_batch_arrays(step1, model, batch, monkeypatch):
    # One state and one map_classify per signal, but no per-signal copies:
    # every state holds the one rows object and a row view of one (S, K)
    # array of measurements.
    states = []

    def spy(state, model):
        states.append(state)
        return map_classify(state, model)

    monkeypatch.setattr(protocol, "map_classify", spy)
    report = run_two_step(config_for(step1, "eigen_mse"), batch, model)
    assert len(states) == batch.n_signals
    assert all(state.rows is states[0].rows for state in states)
    y1 = states[0].measurements.base
    assert isinstance(y1, np.ndarray) and y1.shape == (batch.n_signals, K)
    for i, state in enumerate(states):
        assert state.measurements.base is y1 and np.shares_memory(state.measurements, y1[i])
    assert report.classes.tolist() == [map_classify(state, model) for state in states]


def test_require_finite_names_the_first_bad_signal_of_a_long_array():
    y = np.zeros((5000, 3))
    y[-1, 2] = np.nan
    with pytest.raises(ValueError, match="measurements must be finite, but signal 4999 is not"):
        _require_finite(y, "measurements")
    y[1234, 0] = np.inf
    with pytest.raises(ValueError, match="but signal 1234 is not"):
        _require_finite(y, "measurements")


def test_full_detection_budget_is_the_single_step_protocol(model, batch):
    # K = M: sense all M rows of the step-1 design, take the most likely
    # class, Wiener-reconstruct under it.
    config = ProtocolConfig("rip_ab", "eigen_mse", M=M, K=M)
    report = run_two_step(config, batch, model)
    rows = rip_ab(model, M).rows
    for i, x in enumerate(batch.signals):
        y = rows @ x
        gamma = int(np.argmax(measurement_log_likelihoods(rows, y, model, 0.0))) + 1
        comp = model.component(gamma)
        xhat = comp.mean + comp.basis @ wiener_coefficients(
            y - rows @ comp.mean, rows, comp, 0.0
        )
        assert report.classes[i] == gamma
        assert report.squared_errors[i] == pytest.approx(
            np.sum((x - xhat) ** 2) / N, rel=1e-10, abs=1e-15
        )


@pytest.mark.parametrize("pair", [("rip_ab", "eigen_mse"), ("aida_sht", "mi_adaptive")])
def test_labels_above_the_class_count_are_rejected(pair, model, batch):
    labelled = SignalBatch(signals=batch.signals, labels=np.full(batch.n_signals, 7))
    with pytest.raises(ValueError, match="labels go up to 7, but the model has 2 classes"):
        run_two_step(config_for(*pair), labelled, model)
    labelled = SignalBatch(signals=batch.signals, labels=np.full(batch.n_signals, 2))
    assert run_two_step(config_for(*pair), labelled, model).accuracy is not None


def test_a_budget_above_the_signal_dimension_is_rejected(model, batch):
    config = ProtocolConfig("rip_ab", "eigen_mse", M=N + 1, K=2)
    with pytest.raises(ValueError, match=f"budget M={N + 1} exceeds the signal dimension {N}"):
        run_two_step(config, batch, model)


@pytest.mark.parametrize("width", [N - 1, N + 1])
def test_a_batch_of_another_dimension_is_rejected(width, model):
    batch = SignalBatch(signals=np.ones((2, width)))
    with pytest.raises(ValueError) as err:
        run_two_step(config_for("rip_ab", "eigen_mse"), batch, model)
    assert str(err.value) == "batch dimension does not match the model"


def test_psnr_is_reported_against_the_batch_peak(model, batch):
    config = config_for("rip_ab", "eigen_mse")
    assert run_two_step(config, batch, model).psnr is None
    peaked = SignalBatch(signals=batch.signals, provenance={"i_max": 255.0})
    report = run_two_step(config, peaked, model)
    assert report.psnr == 10.0 * np.log10(255.0**2 / report.mse)
    # Zero signals of a zero-mean model are recovered exactly without noise.
    exact = SignalBatch(signals=np.zeros_like(batch.signals), provenance={"i_max": 255.0})
    report = run_two_step(config_for("rip_ab", "eigen_mse", sigma2=0.0), exact, model)
    assert report.mse == 0.0 and report.psnr == float("inf")


def per_signal_reference(config, batch, model):
    """A non-adaptive protocol run one signal at a time through the public
    API, with the documented noise layout: signal i's noise is the first M
    entries of row i of one (S, N) draw, the first K entries for step 1."""
    n, m, k, sigma2 = model.dimension, config.M, config.K, config.sigma2
    design_seed = [_TAG_DESIGN, config.seed]
    if config.step1 == "random":
        rows1 = random_orthonormal(k, n, seed=design_seed).rows
    elif config.step1 == "rip_ab":
        rows1 = rip_ab(model, k).rows
    else:
        empty = AcquisitionState.initial(model, sigma2, k)
        rows1 = design_classification_block(empty, model, k, seed=design_seed, opts=config.ascent)
    classes, errors = [], []
    for i, x in enumerate(batch.signals):
        z = np.zeros(m)
        if sigma2 > 0.0:
            rng = np.random.default_rng([_TAG_NOISE, config.seed])
            z = np.sqrt(sigma2) * rng.standard_normal((i + 1, n))[i, :m]
        state = AcquisitionState.initial(model, sigma2, config.b)
        state = state.append_block(rows1, rows1 @ x + z[:k], model)
        gamma = map_classify(state, model)
        comp = model.component(gamma)
        rows, y = state.rows, state.measurements
        if k < m:
            if config.step2 == "eigen_mse":
                rows2 = eigen_sensing(comp, m - k).rows
            else:
                rows2 = design_reconstruction_block(state, model, gamma, m - k)
            rows = np.vstack([rows, rows2])
            y = np.concatenate([y, rows2 @ x + z[k:]])
        alpha = wiener_coefficients(y - rows @ comp.mean, rows, comp, sigma2)
        classes.append(gamma)
        errors.append(np.sum((x - comp.mean - comp.basis @ alpha) ** 2) / n)
    return np.array(classes), np.array(errors)


NON_ADAPTIVE_PAIRS = tuple(pair for pair in ALL_PAIRS if pair[0] != "aida_sht")


@pytest.mark.parametrize("k", [K, M], ids=["K<M", "K=M"])
@pytest.mark.parametrize("sigma2", [0.0, 0.01])
@pytest.mark.parametrize("pair", NON_ADAPTIVE_PAIRS, ids="+".join)
def test_batched_run_matches_per_signal_reference(pair, sigma2, k, model):
    batch = sample_signals(model, 24, seed=5)
    config = ProtocolConfig(*pair, M=M, K=k, b=2, sigma2=sigma2, ascent=FAST, seed=3)
    report = run_two_step(config, batch, model)
    classes, errors = per_signal_reference(config, batch, model)
    assert len(np.unique(classes)) == model.n_components  # every class group runs
    assert np.array_equal(report.classes, classes)
    assert np.array_equal(report.k_used, np.full(batch.n_signals, k))
    assert np.allclose(report.squared_errors, errors, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("sigma2", [0.0, 0.01])
@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("pair", ALL_PAIRS, ids="+".join)
def test_zero_prior_class_contract(pair, b, sigma2, model, monkeypatch):
    # Class 1 has zero prior but holds the moments that generated half of the
    # batch, so it has the highest likelihood for those signals.
    c1, c2 = model.components
    broad = GaussianComponent.from_moments(c1.mean, 25.0 * c1.covariance, 0.5)
    dead = GmmModel(components=(c1.with_prior(0.0), c2.with_prior(0.5), broad))
    batch = sample_signals(model, 24, seed=7)
    real_sht_run, outcomes = protocol.sht_run, []

    def recording_sht_run(*args, **kwargs):
        outcomes.append(real_sht_run(*args, **kwargs))
        return outcomes[-1]

    monkeypatch.setattr(protocol, "sht_run", recording_sht_run)
    config = ProtocolConfig(*pair, M=M, K=K, b=b, sigma2=sigma2, ascent=FAST, seed=3)
    report = run_two_step(config, batch, dead)
    assert np.all((report.classes >= 1) & (report.classes <= dead.n_components))
    assert np.all(np.isfinite(report.squared_errors))
    if pair[0] == "aida_sht":
        decided = [o.final_class for o in outcomes if o.decided]
        assert decided  # the sequential test does decide on this model
        assert 1 not in decided


def record_noise_streams(monkeypatch):
    """The seeds of every generator built with the noise tag, in a list."""
    real_default_rng, seeds = np.random.default_rng, []

    def recording_default_rng(seed=None):
        if isinstance(seed, (list, tuple)) and seed[0] == _TAG_NOISE:
            seeds.append(list(seed))
        return real_default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording_default_rng)
    return seeds


@pytest.mark.parametrize("pair", ALL_PAIRS, ids="+".join)
def test_zero_noise_draws_nothing_and_senses_exactly(pair, model, batch, monkeypatch):
    config = ProtocolConfig(*pair, M=M, K=K, b=2, ascent=FAST, seed=3)
    seeds = record_noise_streams(monkeypatch)
    report = run_two_step(config, batch, model)
    assert seeds == []
    monkeypatch.setattr(protocol, "_noise", lambda config, s, n: np.zeros((s, config.M)))
    assert report.same_results(run_two_step(config, batch, model))
    monkeypatch.undo()
    seeds = record_noise_streams(monkeypatch)
    run_two_step(dataclasses.replace(config, sigma2=0.01), batch, model)
    assert seeds == [[_TAG_NOISE, 3]]  # one stream for the whole batch


def test_a_signals_noise_depends_only_on_seed_index_and_dimension():
    config = ProtocolConfig("rip_ab", "eigen_mse", M=M, K=K, sigma2=0.25, seed=9)
    fewer = dataclasses.replace(config, M=K)
    assert np.array_equal(protocol._noise(config, 12, N)[:5, :K], protocol._noise(fewer, 5, N))


# At 0 dB SNR another noise draw changes the classes of several signals, so
# the two tests below fail if a signal's noise depends on the batch or on M.
@pytest.mark.parametrize("pair", [("rip_ab", "eigen_mse"), ("aida_sht", "mi_adaptive")])
def test_a_signals_result_does_not_depend_on_the_batch_size(pair, model):
    batch = sample_signals(model, 12, seed=8)
    head = SignalBatch(signals=batch.signals[:5], labels=batch.labels[:5])
    config = config_for(*pair, sigma2=sigma2_for_snr_db(batch, 0.0))
    full = run_two_step(config, batch, model)
    cut = run_two_step(config, head, model)
    assert np.array_equal(full.classes[:5], cut.classes)
    assert np.array_equal(full.k_used[:5], cut.k_used)


def test_detection_does_not_depend_on_the_total_budget(model):
    # Common random numbers: step-1 measurement j gets the same noise entry
    # whatever M is, so the detected classes agree between K = M and K < M.
    batch = sample_signals(model, 24, seed=5)
    sigma2 = sigma2_for_snr_db(batch, 0.0)
    single = ProtocolConfig("rip_ab", "eigen_mse", M=K, K=K, sigma2=sigma2, seed=3)
    two_step = dataclasses.replace(single, M=M)
    report = run_two_step(single, batch, model)
    assert np.array_equal(report.classes, run_two_step(two_step, batch, model).classes)


def fresh_models():
    """A two-class model (closed-form ida) and a three-class one (spectral)."""
    return {
        "closed_form": synth_model_pair(N, 3.0, 30.0, seed=1)[0],
        "spectral": random_model(N, 3, seed=12),
    }


@pytest.mark.parametrize("step1", STEP1_METHODS)
def test_every_step1_takes_a_seed_of_2_to_the_63(step1, model, batch):
    # aida_sht's per-signal seed key once went through int64 and overflowed
    config = ProtocolConfig(
        step1, "mi_adaptive", M=M, K=K, b=2, sigma2=0.01, ascent=FAST, seed=2**63
    )
    report = run_two_step(config, batch, model)
    assert report.seed == 2**63
    assert report.same_results(run_two_step(config, batch, model))


def designed(caplog, state, model, b, **kw):
    """(rows, start) of one design_classification_block call; start is read
    from its DEBUG record, None when the call logged none (kept rows)."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="gmmsense"):
        rows = design_classification_block(state, model, b, **kw)
    starts = [r.getMessage().split("start=")[1].split()[0] for r in caplog.records]
    assert len(starts) <= 1
    return rows, (starts[0] if starts else None)


def memo_kinds(model):
    """How many designs the model keeps of each kind: "rip_ab" rows,
    empty-history classification "block"s (ida rows and aida_sht first
    blocks) and "step2" designs."""
    return collections.Counter(
        key[0] if isinstance(key[0], str) else "block" for key in model._design_memo
    )


def kept_step2_keys(config, report, model):
    """The step-2 design keys a run keeps: one per kept detection key,
    step2, decided class and M. The detection rows are rip_ab's, ida's or
    the first block of an aida_sht signal that stopped there, where the
    model keeps them."""
    if config.step1 == "rip_ab":
        detection = ("rip_ab", config.K)
    elif config.step1 == "ida":
        detection = (config.K, config.sigma2, config.ascent)
    else:
        detection = (config.b, config.sigma2, config.ascent)
    if config.step1 == "random" or detection not in model._design_memo:
        return set()
    first = report.k_used == (config.b if config.step1 == "aida_sht" else config.K)
    return {
        ("step2", config.step1, detection, config.sigma2, config.step2, int(gamma), config.M)
        for gamma in report.classes[first]
    }


class TestDesignMemo:
    @pytest.mark.parametrize("k", [1, K])
    @pytest.mark.parametrize("start", ["closed_form", "spectral"])
    def test_memoized_rows_equal_a_fresh_design(self, start, k, caplog):
        model = fresh_models()[start]
        twin = GmmModel(components=model.components)  # its own, empty memo
        empty = AcquisitionState.initial(model, 0.01, k)
        fresh, logged = designed(caplog, empty, twin, k, opts=FAST)
        assert logged == start
        for seed in (1, 2):  # the second call reads the memo
            rows = protocol._step1_rows("ida", model, k, 0.01, seed, FAST)
            assert np.array_equal(rows, fresh)
            kept = protocol._step1_rows("rip_ab", model, k, 0.01, seed)
            assert np.array_equal(kept, rip_ab(model, k).rows)
        key = (k, 0.01, FAST)
        assert set(model._design_memo) == {key, ("rip_ab", k)}
        memo = model._design_memo[key]
        assert protocol._step1_rows("ida", model, k, 0.01, 3, FAST) is memo
        again, logged = designed(caplog, empty, model, k, seed=4, opts=FAST)
        assert again is memo and logged is None
        assert memo.shape == (k, N) and memo.base is None

    def test_memoized_rows_are_read_only(self):
        model = fresh_models()["spectral"]
        for method in ("rip_ab", "ida"):
            rows = protocol._step1_rows(method, model, K, 0.01, 0)
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0
        assert all(not rows.flags.writeable for rows in model._design_memo.values())

    def test_a_seeded_design_is_not_kept(self, caplog):
        # sigma2 = 0 and a rank-3 most likely class: no pencil factor, so
        # the ida design starts from a seeded random block
        spd = GaussianComponent.from_moments(np.zeros(6), random_spd(6, seed=81), 0.4)
        model = GmmModel(components=(lowrank_component(82, 6, 3, prior=0.6), spd))
        empty = AcquisitionState.initial(model, 0.0, 2)
        first = protocol._step1_rows("ida", model, 2, 0.0, 5, FAST)
        second = protocol._step1_rows("ida", model, 2, 0.0, 6, FAST)
        assert not np.array_equal(first, second)
        for rows, seed in ((first, 5), (second, 6)):
            fresh, logged = designed(caplog, empty, model, 2, seed=seed, opts=FAST)
            assert logged == "seeded" and np.array_equal(rows, fresh)
        # sht_run's block 1 takes the run's seed, extended by the block number
        x = np.ones(6)
        outcome = inference.sht_run(lambda rows: rows @ x, model, 2, 2, 0.01, seed=(7, 8), opts=FAST)
        fresh = design_classification_block(empty, model, 2, seed=(7, 8, 1), opts=FAST)
        assert np.array_equal(outcome.state.rows, fresh)
        assert model._design_memo == {}
        # nor are the step-2 designs that extend random rows or seeded
        # blocks, although every aida_sht signal here stops on its first block
        batch = sample_signals(model, 8, seed=3)
        for step1, step2 in itertools.product(("random", "ida", "aida_sht"), STEP2_METHODS):
            config = ProtocolConfig(step1, step2, M=5, K=2, b=2, ascent=FAST, seed=7)
            report = run_two_step(config, batch, model)
            assert (report.k_used == 2).all()
        assert model._design_memo == {}

    def test_other_priors_design_afresh(self, caplog):
        # a model with other priors has its own memo and its own design
        model = fresh_models()["spectral"]
        kept, _ = designed(caplog, AcquisitionState.initial(model, 0.01, 1), model, 1, opts=FAST)
        other = GmmModel(components=tuple(
            c.with_prior(p) for c, p in zip(model.components, (0.2, 0.5, 0.3))
        ))
        empty = AcquisitionState.initial(other, 0.01, 1)
        rows, logged = designed(caplog, empty, other, 1, opts=FAST)
        assert logged == "spectral" and not np.array_equal(rows, kept)
        again, logged = designed(caplog, empty, other, 1, opts=FAST)
        assert again is rows and logged is None
        assert len(model._design_memo) == len(other._design_memo) == 1
        assert model._design_memo[(1, 0.01, FAST)] is kept

    def test_the_memo_dies_with_the_model(self, batch):
        model = synth_model_pair(N, 3.0, 30.0, seed=1)[0]
        step2 = set()
        for pair in (("rip_ab", "eigen_mse"), ("ida", "eigen_mse"), ("aida_sht", "mi_adaptive")):
            config = config_for(*pair)
            step2 |= kept_step2_keys(config, run_two_step(config, batch, model), model)
        # rip_ab, ida (b = K) and aida's block 1, and their step-2 designs
        assert memo_kinds(model) == {"rip_ab": 1, "block": 2, "step2": len(step2)}
        assert step2 <= set(model._design_memo)
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    @pytest.mark.parametrize("step1", ["ida", "aida_sht"])
    def test_runs_design_through_the_one_entry_point(self, step1, batch, monkeypatch):
        # Every detection block goes through design_classification_block:
        # ida's rows from protocol, each aida_sht block from inference. A
        # second run gets the kept empty-history rows, the same array
        # object, and designs one block fewer.
        model = synth_model_pair(N, 3.0, 30.0, seed=1)[0]
        real_design, real_posteriors = design_classification_block, adaptive.posterior_matrices
        calls, designs = {"protocol": [], "inference": []}, []

        def counting(module):
            def design(state, *args, **kw):
                rows = real_design(state, *args, **kw)
                calls[module].append((state.n_measurements, rows))
                return rows
            return design

        def posteriors(*args):
            designs.append(args)
            return real_posteriors(*args)

        monkeypatch.setattr(protocol, "design_classification_block", counting("protocol"))
        monkeypatch.setattr(inference, "design_classification_block", counting("inference"))
        monkeypatch.setattr(adaptive, "posterior_matrices", posteriors)
        config = config_for(step1, "mi_adaptive", sigma2=sigma2_for_snr_db(batch, 5.0))
        cold = run_two_step(config, batch, model)
        n_cold, n_designs = {m: len(c) for m, c in calls.items()}, len(designs)
        warm = run_two_step(config, batch, model)
        assert warm.same_results(cold)
        assert len(designs) - n_designs == n_designs - 1
        module, other = ("protocol", "inference") if step1 == "ida" else ("inference", "protocol")
        assert not calls[other]
        assert len(calls[module]) == 2 * n_cold[module]
        if step1 == "ida":
            assert n_cold[module] == 1
        else:  # one call per block
            assert n_cold[module] == int(np.sum(cold.k_used)) // config.b
        firsts = [rows for measured, rows in calls[module] if measured == 0]
        assert len(firsts) == (2 if step1 == "ida" else 2 * batch.n_signals)
        assert all(rows is firsts[0] for rows in firsts)


PAPER_CASES = [
    (pair, b, snr_db) for pair in PAPER_PAIRS for b in (1, 4) for snr_db in (20.0, 5.0)
]


def test_reports_do_not_depend_on_the_memo():
    # A cold model, the same model with a warm memo, an equal but distinct
    # model and a fresh model per config give bitwise the same reports,
    # with step-2 designs kept for the signals that stop on aida_sht's
    # first block and for single-step (K = M) runs.
    model = synth_model_pair(64, 30, 46, seed=0)[0]
    twin = GmmModel(components=model.components)
    batch = sample_signals(model, 3, seed=4)
    cases = [(pair, b, snr_db, 4) for pair, b, snr_db in PAPER_CASES] + [
        (pair, 1, snr_db, 8)
        for pair in (("rip_ab", "eigen_mse"), ("ida", "mi_adaptive")) for snr_db in (20.0, 5.0)
    ]
    configs = [
        ProtocolConfig(
            *pair, M=8, K=k, b=b, sigma2=sigma2_for_snr_db(batch, snr_db), ascent=FAST, seed=7
        )
        for pair, b, snr_db, k in cases
    ]
    cold = [run_two_step(config, batch, model) for config in configs]
    for config, report in zip(configs, cold):
        if config.step1 == "aida_sht":
            assert (report.k_used == config.b).any()
    step2 = set().union(*(
        kept_step2_keys(config, report, model) for config, report in zip(configs, cold)
    ))
    # rip_ab at K = 4 and 8; per SNR, ida at K = 4 (aida's b = 4 block 1
    # too), 8 and aida's b = 1 block 1; one step-2 design per kept
    # detection key, step2, decided class and M
    assert memo_kinds(model) == {"rip_ab": 2, "block": 6, "step2": len(step2)}
    assert step2 <= set(model._design_memo)
    assert {key[1] for key in step2} == {"rip_ab", "ida", "aida_sht"}
    kept = dict(model._design_memo)
    for config, report in zip(configs, cold):
        assert report.same_results(run_two_step(config, batch, model))
        assert report.same_results(run_two_step(config, batch, twin))
        alone = GmmModel(components=model.components)
        assert report.same_results(run_two_step(config, batch, alone))
    assert model._design_memo.keys() == twin._design_memo.keys() == kept.keys()
    assert all(model._design_memo[key] is design for key, design in kept.items())


def test_the_memo_does_not_grow_with_the_signals():
    # 3 and 40 signals that decide the same classes on the same kept
    # detection rows leave the same kept designs, one per class
    model = synth_model_pair(64, 30, 46, seed=0)[0]
    twin = GmmModel(components=model.components)
    few, many = sample_signals(model, 3, seed=4), sample_signals(model, 40, seed=5)
    sigma2 = sigma2_for_snr_db(few, 20.0)
    for step1, b in (("rip_ab", 1), ("ida", 1), ("aida_sht", 1), ("aida_sht", 4)):
        config = ProtocolConfig(step1, "mi_adaptive", M=8, K=4, b=b, sigma2=sigma2, ascent=FAST)
        for target, batch in ((model, few), (twin, many)):
            report = run_two_step(config, batch, target)
            assert set(report.classes.tolist()) == {1, 2}
    assert memo_kinds(model) == memo_kinds(twin) == {"rip_ab": 1, "block": 2, "step2": 8}
    assert model._design_memo.keys() == twin._design_memo.keys()


class TestConfigFromDict:
    def test_round_trip(self):
        config = config_for("ida", "mi_adaptive")
        assert ProtocolConfig.from_dict(config.to_dict()) == config

    def test_unknown_key_is_named(self):
        d = {**config_for("ida", "eigen_mse").to_dict(), "blocksize": 3}
        with pytest.raises(ValueError, match="blocksize"):
            ProtocolConfig.from_dict(d)

    def test_unknown_ascent_key_is_named(self):
        d = {"step1": "ida", "step2": "eigen_mse", "M": 4, "K": 2, "ascent": {"iters": 5}}
        with pytest.raises(ValueError, match="iters"):
            ProtocolConfig.from_dict(d)

    def test_ascent_must_be_a_mapping(self):
        d = {"step1": "ida", "step2": "eigen_mse", "M": 4, "K": 2, "ascent": 5}
        with pytest.raises(ValueError, match="ascent"):
            ProtocolConfig.from_dict(d)
        d["ascent"] = FAST
        assert ProtocolConfig.from_dict(d).ascent == FAST

    def test_missing_key_is_named(self):
        with pytest.raises(ValueError, match="step2"):
            ProtocolConfig.from_dict({"step1": "ida", "M": 4, "K": 2})


BASE = {"step1": "ida", "step2": "eigen_mse", "M": 4, "K": 2}


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("M", "8", "M must be an integer, got '8'"),
        ("M", 8.0, "M must be an integer, got 8.0"),
        ("M", True, "M must be an integer, got True"),
        ("K", None, "K must be an integer, got None"),
        ("b", 1.5, "b must be an integer, got 1.5"),
        ("b", False, "b must be an integer, got False"),
        ("seed", "3", "seed must be an integer, got '3'"),
        ("seed", -1, "seed must be >= 0, got -1"),
        ("P_e", "0.1", "P_e must be a finite number, got '0.1'"),
        ("P_e", float("nan"), "P_e must be a finite number, got nan"),
        ("P_e", True, "P_e must be a finite number, got True"),
        ("sigma2", None, "sigma2 must be a finite number, got None"),
        ("sigma2", float("inf"), "sigma2 must be a finite number, got inf"),
        ("step1", "aida", "unknown step1 'aida', choose from "
                          "('random', 'rip_ab', 'ida', 'aida_sht')"),
        ("step2", "eigen", "unknown step2 'eigen', choose from ('eigen_mse', 'mi_adaptive')"),
        ("K", 0, "need 1 <= K <= M, got K=0, M=4"),
        ("K", 5, "need 1 <= K <= M, got K=5, M=4"),
        ("b", 0, "b must be >= 1"),
        ("P_e", 0.0, "P_e must lie in (0, 0.5)"),
        ("P_e", 0.5, "P_e must lie in (0, 0.5)"),
        ("sigma2", -0.5, "sigma2 must be finite and >= 0, got -0.5"),
    ],
    ids=[
        "M-str", "M-float", "M-bool", "K-null", "b-float", "b-bool", "seed-str",
        "seed-negative", "P_e-str", "P_e-nan", "P_e-bool", "sigma2-null", "sigma2-inf",
        "step1-unknown", "step2-unknown", "K-zero", "K-above-M", "b-zero", "P_e-zero",
        "P_e-half", "sigma2-negative",
    ],
)
def test_from_dict_rejects_a_value_of_the_wrong_type(key, value, message):
    with pytest.raises(ValueError) as err:
        ProtocolConfig.from_dict({**BASE, key: value})
    assert str(err.value) == message


@pytest.mark.parametrize("config", [5, "ida", [BASE], None], ids=["int", "str", "list", "null"])
def test_from_dict_rejects_a_config_that_is_not_a_mapping(config):
    with pytest.raises(ValueError, match="protocol config must be a mapping"):
        ProtocolConfig.from_dict(config)


def test_from_dict_accepts_numpy_scalars_and_stores_python_numbers():
    config = ProtocolConfig.from_dict({
        **BASE, "M": np.int64(4), "K": np.int32(2), "b": np.int64(2), "seed": np.uint8(3),
        "P_e": np.float32(0.25), "sigma2": np.float64(0.01),
    })
    assert config.to_dict() == {**BASE, "b": 2, "seed": 3, "P_e": 0.25, "sigma2": 0.01,
                                "ascent": {"max_iters": 200}}
    assert [type(v) for v in config.to_dict().values()] == [
        str, str, int, int, int, float, float, dict, int
    ]
    json.dumps(config.to_dict())  # a numpy int64 used to make this raise


@pytest.mark.parametrize("old_key", ["step0", "tol", "max_backtracks"])
def test_from_dict_rejects_the_removed_ascent_keys(old_key):
    with pytest.raises(ValueError, match=f"unknown ascent key\\(s\\): {old_key}"):
        ProtocolConfig.from_dict({**BASE, "ascent": {old_key: 0.1}})


@pytest.mark.parametrize("value", ["5", 2.0, -1, True])
def test_ascent_max_iters_must_be_a_nonnegative_integer(value):
    with pytest.raises(ValueError, match="max_iters must be an integer >= 0"):
        ProtocolConfig.from_dict({**BASE, "ascent": {"max_iters": value}})


def write_json(path, obj):
    """obj as JSON; bytes are written as they are, for a file that is not JSON."""
    if isinstance(obj, bytes):
        path.write_bytes(obj)
    else:
        path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("synthetic")
    assert cli.main([
        "gen-synthetic", "--dimension", str(N), "--bd-low", "3", "--bd-high", "30",
        "--signals", "12", "--sigma2", "0.01", "--seed", "1", "--out", str(out),
    ]) == 0
    return out


def run_protocol(data, config, out, *extra):
    return cli.main([
        "run-protocol", "--config", config, "--model", str(data / "model"),
        "--signals", str(data / "signals.scsm"), "--out", str(out), *extra,
    ])


def test_cli_end_to_end(data, tmp_path, capsys):
    design = tmp_path / "ida.scsm"
    assert cli.main([
        "design", "--model", str(data / "model"), "--method", "ida",
        "--measurements", "3", "--sigma2", "0.01", "--out", str(design),
        "--csv", str(tmp_path / "ida.csv"),
    ]) == 0
    rows = np.loadtxt(tmp_path / "ida.csv", delimiter=",")
    assert rows.shape == (3, N)
    assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-10)

    reports = []
    for step1, step2 in (("rip_ab", "eigen_mse"), ("aida_sht", "mi_adaptive")):
        config = write_json(
            tmp_path / f"{step1}.json",
            {"step1": step1, "step2": step2, "M": M, "K": K, "b": 2,
             "ascent": {"max_iters": 20}},
        )
        out = tmp_path / f"{step1}-report.json"
        assert run_protocol(
            data, config, out, "--labels", str(data / "labels.csv"),
            "--snr-db", "20", "--seed", "4", "--per-signal", str(tmp_path / f"{step1}.csv"),
        ) == 0
        d = json.loads(out.read_text())
        assert d["seed"] == 4 and d["config"]["seed"] == 4
        assert d["config"]["sigma2"] > 0.0
        assert d["n_signals"] == 12 and 0.0 <= d["accuracy"] <= 1.0
        reports.append(str(out))

    table = tmp_path / "table.csv"
    assert cli.main(["report", "--inputs", *reports, "--out", str(table)]) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == ExperimentReport.CSV_HEADER
    assert [line.split(",")[0] for line in lines[1:]] == [
        "rip_ab+eigen_mse", "aida_sht+mi_adaptive"
    ]
    assert all(len(line.split(",")) == len(lines[0].split(",")) for line in lines)
    capsys.readouterr()


def test_cli_rejects_unknown_config_key(data, tmp_path, capsys):
    config = write_json(tmp_path / "c.json",
                        {"step1": "rip_ab", "step2": "eigen_mse", "M": 4, "K": 2, "bogus": 1})
    assert run_protocol(data, config, tmp_path / "r.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bogus" in err


def test_cli_runs_a_pair_the_paper_does_not_evaluate(data, tmp_path, capsys):
    d = {"step1": "random", "step2": "mi_adaptive", "M": 4, "K": 2}
    out = tmp_path / "r.json"
    assert run_protocol(data, write_json(tmp_path / "c.json", d), out) == 0
    assert json.loads(out.read_text())["protocol"] == "random+mi_adaptive"
    capsys.readouterr()
    # The switch that once admitted such a pair is an unknown key now.
    old = write_json(tmp_path / "old.json", {**d, "allow_nonstandard": True})
    assert run_protocol(data, old, tmp_path / "old-report.json") == 1
    assert capsys.readouterr().err == "error: unknown protocol config key(s): allow_nonstandard\n"
    assert not (tmp_path / "old-report.json").exists()


def test_cli_runs_aida_sht_with_a_seed_of_2_to_the_63(data, tmp_path, capsys):
    config = write_json(
        tmp_path / "c.json",
        {"step1": "aida_sht", "step2": "mi_adaptive", "M": M, "K": K, "b": 1},
    )
    out = tmp_path / "r.json"
    assert run_protocol(data, config, out, "--seed", str(2**63)) == 0
    d = json.loads(out.read_text())
    assert d["seed"] == 2**63 and d["config"]["seed"] == 2**63
    assert capsys.readouterr().err == ""


def test_cli_train_gmm_rejects_a_label_column_out_of_range(tmp_path, capsys):
    csv = tmp_path / "signals.csv"
    csv.write_text("1,0.5,0.25\n2,0.75,0.125\n")
    code = cli.main([
        "train-gmm", "--csv", str(csv), "--label-col", "7", "--out", str(tmp_path / "m"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {csv}: ") and "3 columns" in err
    # a file of labels alone once trained a model from one signal; it and a
    # cell that is no number are errors that name the file
    labels = tmp_path / "labels.csv"
    labels.write_text("1\n2\n1\n")
    assert cli.main(["train-gmm", "--csv", str(labels), "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {labels}: signals must be a nonempty (S, N) array, got (3, 0)\n"
    csv.write_text("1,0.5,x\n")
    assert cli.main(["train-gmm", "--csv", str(csv), "--out", str(tmp_path / "m")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {csv}: could not convert string 'x' to float64 at row 0, column 3.\n"
    assert not any(tmp_path.glob("m*"))


@pytest.mark.parametrize(
    "flags, code, message",
    [
        (["--iters", "-1"], 1, "iters must be >= 0, got -1"),
        (["--classes", "0"], 1, "orientation_bins must be >= 0, got -1"),
        (["--classes", "1", "--iters", "1"], 0, "G=1"),
    ],
    ids=["negative-iters", "zero-classes", "one-class"],
)
def test_cli_train_gmm_checks_iters_and_classes(flags, code, message, tmp_path, capsys):
    image = tmp_path / "img.pgm"
    write_pgm(image, make_image(2, size=32))
    argv = ["train-gmm", "--images", str(image), "--patch", "4", "--out", str(tmp_path / "m")]
    assert cli.main(argv + flags) == code
    out = capsys.readouterr()
    if code:
        assert out.err.startswith("error: ") and message in out.err
    else:
        assert message in out.out


def test_cli_train_gmm_coadapts_on_images(tmp_path, capsys):
    # Co-adaptation learns from measured patches; at sigma2 = 0 every patch
    # lands in class 1, so the run uses noise and pins only the model's shape.
    image = tmp_path / "img.pgm"
    write_pgm(image, make_image(3, size=48))
    out = tmp_path / "co"
    argv = ["train-gmm", "--images", str(image), "--coadapt", "rip_ab", "--measurements", "8",
            "--sigma2", "1", "--classes", "5", "--out", str(out)]
    assert cli.main(argv) == 0
    model = load_model(out)
    assert (model.n_components, model.dimension) == (5, 64)
    assert capsys.readouterr().out == f"trained model: G=5, N=64, saved to {out}\n"
    # --measurements is required with --coadapt, and nothing is written
    unmeasured = tmp_path / "unmeasured"
    argv = ["train-gmm", "--images", str(image), "--coadapt", "random", "--out", str(unmeasured)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: --coadapt requires --measurements\n"
    assert not any(tmp_path.glob("unmeasured*"))


@pytest.mark.parametrize(
    "flags",
    [
        ["--coadapt", "random", "--measurements", "1"], ["--measurements", "1"], ["--iters", "5"],
        ["--patch", "4"], ["--overlap"], ["--classes", "3"], ["--seed", "1"],
    ],
    ids=["coadapt", "measurements", "iters", "patch", "overlap", "classes", "seed"],
)
def test_cli_train_gmm_csv_rejects_image_only_flags(flags, tmp_path, capsys):
    csv = tmp_path / "signals.csv"
    csv.write_text("1,0.5,0.25\n2,0.75,0.125\n")
    out = tmp_path / "m"
    assert cli.main(["train-gmm", "--csv", str(csv), "--out", str(out), *flags]) == 1
    err = capsys.readouterr().err
    named = [f for f in flags if f.startswith("--")]
    assert err == f"error: --csv does not take {', '.join(named)}\n"
    assert not any(tmp_path.glob("m*"))


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--dimension", "1"], "dimension must be >= 2"),
        (["--dimension", "8", "--bd-low", "46", "--bd-high", "30"], "need bd_low < bd_high"),
    ],
    ids=["dimension", "bucket"],
)
def test_cli_gen_synthetic_writes_nothing_when_no_model_is_drawn(flags, message, tmp_path, capsys):
    out = tmp_path / "d"
    assert cli.main(["gen-synthetic", *flags, "--signals", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_report_rejects_a_report_missing_a_field(tmp_path, capsys):
    config = {"step1": "rip_ab", "step2": "eigen_mse", "M": 8, "K": 4, "b": 1, "P_e": 0.01,
              "sigma2": 0.0}
    good = {"protocol": "rip_ab+eigen_mse", "config": config, "seed": 0, "n_signals": 2,
            "accuracy": 1.0, "mse": 1.0, "psnr": None, "mean_k": 4, "wall_time_s": 0.1}
    assert cli.main(["report", "--inputs", write_json(tmp_path / "good.json", good)]) == 0
    capsys.readouterr()
    # a missing field, fields of the wrong type, then a file that is not JSON
    malformed = "malformed report, bad or missing field "
    for report, problem in (({"protocol": "rip_ab+eigen_mse", "seed": 0}, malformed),
                            ({**good, "accuracy": "x"}, malformed),
                            ({**good, "mse": "1.0"}, malformed),
                            (b'{"protocol": }', "not JSON: Expecting value")):
        bad = write_json(tmp_path / "bad.json", report)
        assert cli.main(["report", "--inputs", bad]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: {problem}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "config, message",
    [
        ({**BASE, "step1": "rip_ab", "M": "8"}, "M must be an integer, got '8'"),
        ({**BASE, "ascent": {"step0": 0.1}}, "unknown ascent key(s): step0"),
        (5, "protocol config must be a mapping, got 5"),
        (b"{'M': 8}", "c.json: not JSON: Expecting property name"),
    ],
    ids=["string-M", "removed-ascent-key", "not-a-mapping", "not-json"],
)
def test_cli_rejects_a_malformed_config(config, message, data, tmp_path, capsys):
    path = write_json(tmp_path / "c.json", config)
    assert run_protocol(data, path, tmp_path / "r.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "r.json").exists()


def test_cli_rejects_labels_above_the_class_count(data, tmp_path, capsys):
    labels = tmp_path / "labels.csv"
    labels.write_text("7\n" * 12)
    config = write_json(
        tmp_path / "c.json", {"step1": "rip_ab", "step2": "eigen_mse", "M": M, "K": K}
    )
    assert run_protocol(data, config, tmp_path / "r.json", "--labels", str(labels)) == 1
    assert capsys.readouterr().err == (
        f"error: {labels}: labels go up to 7, but the model has 2 classes\n"
    )
    assert not (tmp_path / "r.json").exists()
    # a label that is no integer, or fewer labels than signals: the error
    # names the labels file
    for text, message in [
        ("1\nx\n", "could not convert string 'x' to int64 at row 1, column 1."),
        ("1\n2\n", "labels length must match the signal count"),
    ]:
        labels.write_text(text)
        assert run_protocol(data, config, tmp_path / "r.json", "--labels", str(labels)) == 1
        assert capsys.readouterr().err == f"error: {labels}: {message}\n"
        assert not (tmp_path / "r.json").exists()


def test_cli_rejects_signals_holding_a_nan(data, tmp_path, capsys):
    signals = read_matrix(data / "signals.scsm")
    signals[3, 5] = np.nan
    path = tmp_path / "nan.scsm"
    write_matrix(path, signals)
    config = write_json(
        tmp_path / "c.json", {"step1": "rip_ab", "step2": "eigen_mse", "M": M, "K": K}
    )
    out = tmp_path / "r.json"
    assert cli.main([
        "run-protocol", "--config", config, "--model", str(data / "model"),
        "--signals", str(path), "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == f"error: {path}: signals must be finite, but signal 3 is not\n"
    assert not out.exists()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_cli_reads_signals_through_a_fifo(data, tmp_path):
    # As with --signals <(cat signals.scsm): the report equals the file's.
    config = write_json(
        tmp_path / "c.json", {"step1": "rip_ab", "step2": "eigen_mse", "M": M, "K": K}
    )
    fifo = fifo_of(tmp_path / "pipe.scsm", (data / "signals.scsm").read_bytes())
    reports = []
    for signals, name in ((data / "signals.scsm", "file.json"), (fifo, "fifo.json")):
        assert cli.main([
            "run-protocol", "--config", config, "--model", str(data / "model"),
            "--signals", str(signals), "--out", str(tmp_path / name),
        ]) == 0
        report = json.loads((tmp_path / name).read_text())
        report.pop("wall_time_s")
        reports.append(report)
    assert reports[0] == reports[1]


def test_cli_rejects_a_negative_sigma2(data, tmp_path, capsys):
    out = tmp_path / "synthetic"
    assert cli.main([
        "gen-synthetic", "--dimension", "8", "--sigma2", "-1", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == "error: --sigma2 must be finite and >= 0, got -1.0\n"
    assert not out.exists()
    image = tmp_path / "img.pgm"
    write_pgm(image, make_image(2, size=32))
    assert cli.main([
        "train-gmm", "--images", str(image), "--patch", "4", "--sigma2", "-1",
        "--out", str(tmp_path / "m"),
    ]) == 1
    assert capsys.readouterr().err == "error: --sigma2 must be finite and >= 0, got -1.0\n"
    assert not (tmp_path / "m").exists()
    assert cli.main([
        "design", "--model", str(data / "model"), "--method", "ida", "--measurements", "3",
        "--sigma2", "-1", "--out", str(tmp_path / "d.scsm"),
    ]) == 1
    assert capsys.readouterr().err == "error: --sigma2 must be finite and >= 0, got -1.0\n"
    assert not (tmp_path / "d.scsm").exists()


@pytest.mark.parametrize("method", ["random", "rip_ab", "eigen", "ida"])
def test_cli_design_writes_the_library_rows(method, data, tmp_path, capsys):
    # --seed reaches the library as given, with no protocol tag. Each
    # method gets only the flags it reads.
    model = load_model(data / "model")
    expected = {
        "random": lambda: random_orthonormal(5, N, seed=9).rows,
        "rip_ab": lambda: rip_ab(model, 5).rows,
        "eigen": lambda: eigen_sensing(model.component(2), 5).rows,
        "ida": lambda: design_classification_block(
            AcquisitionState.initial(model, 0.01, 5), model, 5, seed=9
        ),
    }[method]()
    flags = {
        "random": ["--seed", "9"],
        "rip_ab": [],
        "eigen": ["--component", "2"],
        "ida": ["--sigma2", "0.01", "--seed", "9"],
    }[method]
    out = tmp_path / "d.scsm"
    assert cli.main([
        "design", "--model", str(data / "model"), "--method", method, "--measurements", "5",
        *flags, "--out", str(out),
    ]) == 0
    assert np.array_equal(read_matrix(out), expected)
    assert capsys.readouterr().out == f"wrote {method} design (5x{N}) to {out}\n"


@pytest.mark.parametrize("measurements", [0, N + 1])
@pytest.mark.parametrize("method", ["random", "rip_ab", "ida"])
def test_cli_design_rejects_a_row_count_outside_the_dimension(
    method, measurements, data, tmp_path, capsys
):
    # ida once named block_size, a field of its empty history the user never set
    out = tmp_path / "d.scsm"
    assert cli.main([
        "design", "--model", str(data / "model"), "--method", method,
        "--measurements", str(measurements), "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == f"error: need 1 <= m <= {N}, got m={measurements}\n"
    assert not out.exists()


def test_cli_train_gmm_csv_remaps_labels_to_consecutive_classes(tmp_path, capsys):
    # Landsat-style labels: class 6 is absent, so 7 becomes class 6.
    raw = np.repeat([1, 2, 3, 4, 5, 7], 4)
    signals = np.random.default_rng(0).standard_normal((24, 3)) + raw[:, None]
    csv = tmp_path / "landsat.csv"
    np.savetxt(csv, np.column_stack([raw, signals]), delimiter=",", fmt="%.17g")
    assert cli.main(["train-gmm", "--csv", str(csv), "--out", str(tmp_path / "m")]) == 0
    assert "trained model: G=6, N=3" in capsys.readouterr().out
    model = load_model(tmp_path / "m")
    for g, value in enumerate([1, 2, 3, 4, 5, 7], start=1):
        assert np.array_equal(model.component(g).mean, signals[raw == value].mean(axis=0))
    assert np.array_equal(model.priors, np.full(6, 1 / 6))


def test_cli_run_protocol_on_images_reports_psnr(tmp_path, capsys):
    image = tmp_path / "img.pgm"
    write_pgm(image, make_image(2, size=32))
    model = tmp_path / "m"
    assert cli.main([
        "train-gmm", "--images", str(image), "--patch", "4", "--classes", "3",
        "--iters", "1", "--out", str(model),
    ]) == 0
    config = write_json(tmp_path / "c.json", {"step1": "rip_ab", "step2": "eigen_mse",
                                              "M": 8, "K": 4})
    out = tmp_path / "r.json"
    assert cli.main([
        "run-protocol", "--config", config, "--model", str(model), "--images", str(image),
        "--patch", "4", "--snr-db", "20", "--out", str(out),
    ]) == 0
    d = json.loads(out.read_text())
    assert d["n_signals"] == 64 and d["accuracy"] is None
    assert d["psnr"] == 10.0 * np.log10(255.0**2 / d["mse"])
    assert f"psnr={d['psnr']:.2f} dB accuracy=n/a" in capsys.readouterr().out


@pytest.mark.parametrize(
    "inputs, message",
    [
        (["--signals", "signals", "--images", "image"],
         "provide either --signals or --images (exactly one)"),
        ([], "provide either --signals or --images (exactly one)"),
        (["--images", "image", "--labels", "labels"], "--images does not take --labels"),
        (["--signals", "signals"], "--signals does not take --patch"),
    ],
    ids=["signals-and-images", "neither", "images-with-labels", "signals-with-patch"],
)
def test_cli_run_protocol_rejects_inputs_it_would_ignore(
    inputs, message, data, tmp_path, capsys
):
    # Each used to exit 0: the images were dropped beside --signals, the
    # labels (one for 16 patches) were never read beside --images, and
    # --patch (given in every case) was dropped beside --signals.
    image = tmp_path / "img.pgm"
    write_pgm(image, make_image(2, size=16))
    labels = tmp_path / "labels.csv"
    labels.write_text("1\n")
    paths = {"signals": data / "signals.scsm", "image": image, "labels": labels}
    config = write_json(
        tmp_path / "c.json", {"step1": "rip_ab", "step2": "eigen_mse", "M": M, "K": K}
    )
    out = tmp_path / "r.json"
    assert cli.main([
        "run-protocol", "--config", config, "--model", str(data / "model"),
        *(str(paths.get(arg, arg)) for arg in inputs), "--patch", "4", "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["design", "--method", "eigen", "--seed", "1"], "--method eigen does not take --seed"),
        (["design", "--method", "eigen", "--sigma2", "0.1"],
         "--method eigen does not take --sigma2"),
        (["design", "--method", "random", "--component", "2"],
         "--method random does not take --component"),
        (["design", "--method", "rip_ab", "--component", "2"],
         "--method rip_ab does not take --component"),
        (["design", "--method", "ida", "--component", "2"],
         "--method ida does not take --component"),
        (["design", "--method", "random", "--sigma2", "0.1"],
         "--method random does not take --sigma2"),
        (["design", "--method", "rip_ab", "--sigma2", "0.1"],
         "--method rip_ab does not take --sigma2"),
        (["design", "--method", "rip_ab", "--seed", "1"], "--method rip_ab does not take --seed"),
        (["train-gmm", "--images", "image", "--coadapt", "random", "--measurements", "2",
          "--label-col", "0"], "--images does not take --label-col"),
        (["train-gmm", "--images", "image", "--label-col", "0"],
         "--images without --coadapt does not take --label-col"),
        (["train-gmm", "--images", "image", "--measurements", "2"],
         "--images without --coadapt does not take --measurements"),
        (["train-gmm", "--images", "image", "--seed", "1"],
         "--images without --coadapt does not take --seed"),
    ],
    ids=[
        "eigen-seed", "eigen-sigma2", "random-component", "rip_ab-component", "ida-component",
        "random-sigma2", "rip_ab-sigma2", "rip_ab-seed", "coadapt-label-col", "images-label-col",
        "images-measurements", "images-seed",
    ],
)
def test_cli_rejects_a_flag_its_mode_does_not_read(argv, message, data, tmp_path, capsys):
    # Each of these used to exit 0 and drop the flag.
    image = tmp_path / "img.pgm"
    write_pgm(image, make_image(2, size=16))
    verb, *flags = argv
    if verb == "design":
        flags += ["--model", str(data / "model"), "--measurements", "3"]
    out = tmp_path / "out"
    assert cli.main([
        verb, *(str(image) if arg == "image" else arg for arg in flags), "--out", str(out),
    ]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()
