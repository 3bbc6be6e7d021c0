import json

import numpy as np
import pytest

from gmmsense import cli
from gmmsense.adaptive import AscentOptions, measurement_log_likelihoods
from gmmsense.design import rip_ab
from gmmsense.inference import wiener_coefficients
from gmmsense.model import sample_signals
from gmmsense.protocol import (
    VALID_PROTOCOL_PAIRS,
    ExperimentReport,
    ProtocolConfig,
    run_two_step,
)
from gmmsense.synthetic import synth_model_pair

N, M, K = 16, 6, 3
FAST = AscentOptions(max_iters=20)


@pytest.fixture(scope="module")
def model():
    return synth_model_pair(N, 3.0, 30.0, seed=1)[0]


@pytest.fixture(scope="module")
def batch(model):
    return sample_signals(model, 6, sigma=0.1, seed=2)


def config_for(step1, step2, k=K, **kw):
    return ProtocolConfig(
        step1, step2, M=M, K=k, b=2, sigma2=0.01, ascent=FAST, seed=3, **kw
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


def test_cli_report_rejects_a_report_missing_a_field(tmp_path, capsys):
    bad = write_json(tmp_path / "bad.json", {"protocol": "rip_ab+eigen_mse", "seed": 0})
    assert cli.main(["report", "--inputs", bad]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad.json" in err
