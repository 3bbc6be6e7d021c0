import dataclasses
import gc
import json
import os
import weakref

import numpy as np
import pytest

from helpers import fifo_of, lowrank_component, make_image, random_model, random_spd
from gmmsense import adaptive, cli, protocol
from gmmsense.adaptive import (
    AcquisitionState,
    AscentOptions,
    design_classification_block,
    design_reconstruction_block,
    measurement_log_likelihoods,
)
from gmmsense.design import eigen_sensing, random_orthonormal, rip_ab
from gmmsense.inference import map_classify, wiener_coefficients
from gmmsense.model import GaussianComponent, GmmModel, SignalBatch, sample_signals
from gmmsense.patches import write_pgm
from gmmsense.protocol import (
    _TAG_DESIGN,
    _TAG_NOISE,
    VALID_PROTOCOL_PAIRS,
    ExperimentReport,
    ProtocolConfig,
    run_two_step,
    sigma2_for_snr_db,
)
from gmmsense.serialize import load_model, read_matrix, write_matrix
from gmmsense.synthetic import synth_model_pair

N, M, K = 16, 6, 3
FAST = AscentOptions(max_iters=20)


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


@pytest.mark.parametrize("pair", VALID_PROTOCOL_PAIRS, ids="+".join)
class TestEveryStandardPair:
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


NON_ADAPTIVE_PAIRS = (
    ("random", "eigen_mse"),
    ("rip_ab", "eigen_mse"),
    ("ida", "eigen_mse"),
    ("ida", "mi_adaptive"),
    ("random", "mi_adaptive"),  # nonstandard
)


@pytest.mark.parametrize("k", [K, M], ids=["K<M", "K=M"])
@pytest.mark.parametrize("sigma2", [0.0, 0.01])
@pytest.mark.parametrize("pair", NON_ADAPTIVE_PAIRS, ids="+".join)
def test_batched_run_matches_per_signal_reference(pair, sigma2, k, model):
    batch = sample_signals(model, 24, seed=5)
    config = ProtocolConfig(
        *pair, M=M, K=k, b=2, sigma2=sigma2, ascent=FAST, seed=3, allow_nonstandard=True
    )
    report = run_two_step(config, batch, model)
    classes, errors = per_signal_reference(config, batch, model)
    assert len(np.unique(classes)) == model.n_components  # every class group runs
    assert np.array_equal(report.classes, classes)
    assert np.array_equal(report.k_used, np.full(batch.n_signals, k))
    assert np.allclose(report.squared_errors, errors, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("sigma2", [0.0, 0.01])
@pytest.mark.parametrize("b", [1, 2])
@pytest.mark.parametrize("pair", VALID_PROTOCOL_PAIRS, ids="+".join)
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
        decided = [o.decided_class for o in outcomes if o.decided_class is not None]
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


@pytest.mark.parametrize("pair", VALID_PROTOCOL_PAIRS, ids="+".join)
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


class TestStep1Memo:
    @pytest.mark.parametrize("k", [1, K])
    @pytest.mark.parametrize("start", ["closed_form", "spectral"])
    def test_memoized_rows_equal_a_fresh_design(self, start, k):
        model = fresh_models()[start]
        empty = AcquisitionState.initial(model, 0.01, k)
        assert protocol._classification_design(empty, model, k, 0, FAST)[1] == start
        for seed in (1, 2):  # the second call reads the memo
            rows = protocol._step1_rows("ida", model, k, 0.01, seed, FAST)
            assert np.array_equal(rows, design_classification_block(empty, model, k, opts=FAST))
            kept = protocol._step1_rows("rip_ab", model, k, 0.01, seed)
            assert np.array_equal(kept, rip_ab(model, k).rows)
        assert set(model._step1_memo) == {("ida", k, 0.01, FAST), ("rip_ab", k)}
        memo = model._step1_memo[("ida", k, 0.01, FAST)]
        assert protocol._step1_rows("ida", model, k, 0.01, 3, FAST) is memo
        assert memo.shape == (k, N) and memo.base is None

    def test_memoized_rows_are_read_only(self):
        model = fresh_models()["spectral"]
        for method in ("rip_ab", "ida"):
            rows = protocol._step1_rows(method, model, K, 0.01, 0)
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 1.0
        assert all(not rows.flags.writeable for rows in model._step1_memo.values())

    def test_a_seeded_design_is_not_kept(self):
        # sigma2 = 0 and a rank-3 most likely class: no pencil factor, so
        # the ida design starts from a seeded random block
        spd = GaussianComponent.from_moments(np.zeros(6), random_spd(6, seed=81), 0.4)
        model = GmmModel(components=(lowrank_component(82, 6, 3, prior=0.6), spd))
        empty = AcquisitionState.initial(model, 0.0, 2)
        assert protocol._classification_design(empty, model, 2, 5, FAST)[1] == "seeded"
        first = protocol._step1_rows("ida", model, 2, 0.0, 5, FAST)
        second = protocol._step1_rows("ida", model, 2, 0.0, 6, FAST)
        assert model._step1_memo == {}
        assert not np.array_equal(first, second)
        for rows, seed in ((first, 5), (second, 6)):
            fresh = design_classification_block(empty, model, 2, seed=seed, opts=FAST)
            assert np.array_equal(rows, fresh)

    def test_the_memo_dies_with_the_model(self, batch):
        model = synth_model_pair(N, 3.0, 30.0, seed=1)[0]
        for pair in (("rip_ab", "eigen_mse"), ("ida", "eigen_mse"), ("aida_sht", "mi_adaptive")):
            run_two_step(config_for(*pair), batch, model)
        assert len(model._step1_memo) == 3
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None

    def test_a_second_aida_run_designs_one_block_fewer(self, batch, monkeypatch):
        model = synth_model_pair(N, 3.0, 30.0, seed=1)[0]
        real, calls = adaptive._classification_design, []

        def counting(*args):
            calls.append(args[2])
            return real(*args)

        # the public design_classification_block calls the core too
        monkeypatch.setattr(adaptive, "_classification_design", counting)
        monkeypatch.setattr(protocol, "_classification_design", counting)
        config = config_for("aida_sht", "mi_adaptive", sigma2=sigma2_for_snr_db(batch, 5.0))
        cold = run_two_step(config, batch, model)
        n_cold = len(calls)
        warm = run_two_step(config, batch, model)
        assert len(calls) - n_cold == n_cold - 1
        assert warm.same_results(cold)


STANDARD_CASES = [
    (pair, b, snr_db) for pair in VALID_PROTOCOL_PAIRS for b in (1, 4) for snr_db in (20.0, 5.0)
]


def test_reports_do_not_depend_on_the_memo():
    # A cold model, the same model with a warm memo and an equal but
    # distinct model give bitwise the same reports.
    model = synth_model_pair(64, 30, 46, seed=0)[0]
    twin = GmmModel(components=model.components)
    batch = sample_signals(model, 3, seed=4)
    configs = [
        ProtocolConfig(
            *pair, M=8, K=4, b=b, sigma2=sigma2_for_snr_db(batch, snr_db), ascent=FAST, seed=7
        )
        for pair, b, snr_db in STANDARD_CASES
    ]
    cold = [run_two_step(config, batch, model) for config in configs]
    assert len(model._step1_memo) == 5  # rip_ab; ida at b = 1 and 4 (= K), per SNR
    for config, report in zip(configs, cold):
        assert report.same_results(run_two_step(config, batch, model))
        assert report.same_results(run_two_step(config, batch, twin))


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
        ("allow_nonstandard", 1, "allow_nonstandard must be true or false, got 1"),
        ("allow_nonstandard", "yes", "allow_nonstandard must be true or false, got 'yes'"),
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
        "allow_nonstandard-int", "allow_nonstandard-str", "step1-unknown", "step2-unknown",
        "K-zero", "K-above-M", "b-zero", "P_e-zero", "P_e-half", "sigma2-negative",
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
        "P_e": np.float32(0.25), "sigma2": np.float64(0.01), "allow_nonstandard": np.bool_(False),
    })
    assert config.to_dict() == {**BASE, "b": 2, "seed": 3, "P_e": 0.25, "sigma2": 0.01,
                                "allow_nonstandard": False, "ascent": {"max_iters": 200}}
    assert [type(v) for v in config.to_dict().values()] == [
        str, str, int, int, int, float, float, dict, int, bool
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


def test_cli_allow_nonstandard_admits_a_nonstandard_pair(data, tmp_path, capsys):
    config = write_json(tmp_path / "c.json",
                        {"step1": "random", "step2": "mi_adaptive", "M": 4, "K": 2})
    out = tmp_path / "r.json"
    assert run_protocol(data, config, out) == 1
    assert "not a standard configuration" in capsys.readouterr().err
    assert run_protocol(data, config, out, "--allow-nonstandard") == 0
    assert json.loads(out.read_text())["protocol"] == "random+mi_adaptive"
    capsys.readouterr()


def test_cli_train_gmm_rejects_a_label_column_out_of_range(tmp_path, capsys):
    csv = tmp_path / "signals.csv"
    csv.write_text("1,0.5,0.25\n2,0.75,0.125\n")
    code = cli.main([
        "train-gmm", "--csv", str(csv), "--label-col", "7", "--out", str(tmp_path / "m"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "3 columns" in err


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


@pytest.mark.parametrize(
    "flags",
    [["--coadapt", "random", "--measurements", "1"], ["--measurements", "1"], ["--iters", "5"]],
    ids=["coadapt", "measurements", "iters"],
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
    bad = write_json(tmp_path / "bad.json", {"protocol": "rip_ab+eigen_mse", "seed": 0})
    assert cli.main(["report", "--inputs", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json" in err


@pytest.mark.parametrize(
    "config, message",
    [
        ({**BASE, "step1": "rip_ab", "M": "8"}, "M must be an integer, got '8'"),
        ({**BASE, "ascent": {"step0": 0.1}}, "unknown ascent key(s): step0"),
        (5, "protocol config must be a mapping, got 5"),
    ],
    ids=["string-M", "removed-ascent-key", "not-a-mapping"],
)
def test_cli_rejects_a_malformed_config(config, message, data, tmp_path, capsys):
    path = write_json(tmp_path / "c.json", config)
    for extra in ([], ["--allow-nonstandard"]):
        assert run_protocol(data, path, tmp_path / "r.json", *extra) == 1
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
    assert capsys.readouterr().err == "error: labels go up to 7, but the model has 2 classes\n"
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
    assert capsys.readouterr().err == "error: signals must be finite, but signal 3 is not\n"
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
        "design", "--model", str(data / "model"), "--method", "random", "--measurements", "3",
        "--sigma2", "-1", "--out", str(tmp_path / "d.scsm"),
    ]) == 1
    assert capsys.readouterr().err == "error: --sigma2 must be finite and >= 0, got -1.0\n"
    assert not (tmp_path / "d.scsm").exists()


@pytest.mark.parametrize("method", ["random", "rip_ab", "eigen", "ida"])
def test_cli_design_writes_the_library_rows(method, data, tmp_path, capsys):
    # --seed reaches the library as given, with no protocol tag.
    model, _ = load_model(data / "model")
    expected = {
        "random": lambda: random_orthonormal(5, N, seed=9).rows,
        "rip_ab": lambda: rip_ab(model, 5).rows,
        "eigen": lambda: eigen_sensing(model.component(2), 5).rows,
        "ida": lambda: design_classification_block(
            AcquisitionState.initial(model, 0.01, 5), model, 5, seed=9
        ),
    }[method]()
    out = tmp_path / "d.scsm"
    assert cli.main([
        "design", "--model", str(data / "model"), "--method", method, "--measurements", "5",
        "--component", "2", "--sigma2", "0.01", "--seed", "9", "--out", str(out),
    ]) == 0
    assert np.array_equal(read_matrix(out), expected)
    assert capsys.readouterr().out == f"wrote {method} design (5x{N}) to {out}\n"


def test_cli_train_gmm_csv_remaps_labels_to_consecutive_classes(tmp_path, capsys):
    # Landsat-style labels: class 6 is absent, so 7 becomes class 6.
    raw = np.repeat([1, 2, 3, 4, 5, 7], 4)
    signals = np.random.default_rng(0).standard_normal((24, 3)) + raw[:, None]
    csv = tmp_path / "landsat.csv"
    np.savetxt(csv, np.column_stack([raw, signals]), delimiter=",", fmt="%.17g")
    assert cli.main(["train-gmm", "--csv", str(csv), "--out", str(tmp_path / "m")]) == 0
    assert "trained model: G=6, N=3" in capsys.readouterr().out
    model, _ = load_model(tmp_path / "m")
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
