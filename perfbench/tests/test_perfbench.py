"""Tests of the benchmark itself: inputs, metric names, tracing, results.

Run from the repository root with `python -m pytest -q perfbench/tests`.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

import gmmsense as gs
import run
import tracing
import workloads as wl

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _declared(kind):
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _run_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(list(argv)) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(wl.SPECS))
def test_setup_is_deterministic_for_a_seed(name):
    spec = wl.SPECS[name]
    assert run.same_inputs(wl.setup(spec, 3), wl.setup(spec, 3))


def test_synthetic_signals_depend_on_the_seed():
    spec = wl.SPECS["synth-batch"]
    a, b = wl.setup(spec, 3), wl.setup(spec, 4)
    assert not np.array_equal(a.chunks[0][0].signals, b.chunks[0][0].signals)
    assert np.array_equal(a.model.covariance_stack, b.model.covariance_stack)


def test_workload_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(wl.SPECS)


def test_metric_tables_match_benchmark_json():
    assert dict(run.END_TO_END) == _declared("end_to_end")
    assert run.per_layer_units() == _declared("per_layer")


def test_emitted_end_to_end_metrics_match_benchmark_json():
    result = _run_main("--workload", "synth-batch", "--seed", "2", "--seconds", "0", "--trace", "0")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_emitted_per_layer_metrics_match_benchmark_json():
    result = _run_main("--workload", "synth-batch", "--seed", "2", "--seconds", "0", "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == _declared("per_layer")
    assert result["metrics"]["protocol.run_two_step.calls"]["value"] == 3


def test_tracer_patches_every_call_site_and_restores_it():
    import gmmsense.adaptive as adaptive
    import gmmsense.inference as inference
    import gmmsense.protocol as protocol

    originals = {
        (protocol, "design_classification_block"): protocol.design_classification_block,
        (inference, "design_classification_block"): inference.design_classification_block,
        (adaptive, "posterior_matrices"): adaptive.posterior_matrices,
        (gs, "run_two_step"): gs.run_two_step,
        (adaptive.AcquisitionState, "append_block"): adaptive.AcquisitionState.__dict__["append_block"],
    }
    tracer = tracing.Tracer()
    with tracer:
        patched = tracer.bindings()
        assert len(patched) > len(tracing.TARGETS)
        for (owner, attr), original in originals.items():
            assert owner.__dict__[attr] is not original
        for owner, attr, original in patched:
            assert owner.__dict__[attr] is not original
    assert tracer.bindings() == []
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
    for (owner, attr), original in originals.items():
        assert owner.__dict__[attr] is original


def test_tracer_restores_bindings_after_an_exception():
    import gmmsense.adaptive as adaptive

    original = adaptive.posterior_matrices
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            raise RuntimeError("boom")
    assert adaptive.posterior_matrices is original


def test_span_self_times_exclude_children():
    model, _ = gs.synth_model_pair(16, 3.0, 30.0, seed=1)
    batch = gs.sample_signals(model, 5, seed=1)
    config = gs.ProtocolConfig("rip_ab", "eigen_mse", M=6, K=3, sigma2=0.01)
    tracer = tracing.Tracer()
    with tracer:
        gs.run_two_step(config, batch, model)
    spans = {s[0]: s for s in tracer.spans}
    assert all(s[5] == 1 for s in spans.values())
    children = {}
    for span_id, _, start, end, parent, _ in spans.values():
        if parent:
            assert spans[parent][2] <= start <= end <= spans[parent][3]
            children[parent] = children.get(parent, 0.0) + end - start
    total_self = sum(tracer.self_s.values())
    roots = [s for s in spans.values() if s[4] == 0]
    assert len(roots) == 1
    assert total_self == pytest.approx(roots[0][3] - roots[0][2], rel=1e-9)
    assert tracer.calls["inference.map_classify"] == 5


@pytest.mark.parametrize("pair", [wl.Pair("ida", "eigen_mse", 8), wl.Pair("aida_sht", "mi_adaptive", 4)])
def test_traced_and_untraced_results_are_equal(pair):
    model, _ = gs.synth_model_pair(64, *wl.BD_BUCKET, seed=wl.SYNTH_MODEL_SEED)
    batch = gs.sample_signals(model, 6, seed=5)
    sigma2 = gs.sigma2_for_snr_db(batch, 5.0)
    config = gs.ProtocolConfig(pair.step1, pair.step2, M=16, K=8, b=pair.b, sigma2=sigma2, seed=5)
    plain = gs.run_two_step(config, batch, model)
    with tracing.Tracer():
        traced = gs.run_two_step(config, batch, model)
    assert plain.same_results(traced)


def test_speed_probe_spends_its_share_of_the_timed_work():
    probe = run.SpeedProbe()
    probe.follow(0.0)
    assert len(probe.samples) == 1
    probe.follow(0.1)
    assert sum(probe.samples[1:]) >= run.SpeedProbe.SHARE * 0.1
    assert probe.scale() == pytest.approx(run.SpeedProbe.REFERENCE_S / probe.mean())


def test_signal_checks_flag_bad_reports():
    model, _ = gs.synth_model_pair(16, 3.0, 30.0, seed=1)
    batch = gs.sample_signals(model, 4, seed=1)
    pair = wl.Pair("aida_sht", "mi_adaptive", 2)
    config = gs.ProtocolConfig("aida_sht", "mi_adaptive", M=6, K=2, b=2, sigma2=0.01)
    job = wl.Job(pair=pair, chunk=0, config=config, batch=batch)
    report = gs.run_two_step(config, batch, model)
    assert run.signal_failures(job, report, model.n_components) == 0
    bad = report.__class__(**{
        **report.__dict__,
        "classes": np.array([0, 1, 2, 2]),
        "k_used": np.array([2, 3, 2, 2]),
        "squared_errors": np.array([0.1, 0.1, np.inf, 0.1]),
    })
    assert run.signal_failures(job, bad, model.n_components) == 3


def test_two_class_reference_matches_its_closed_form_score():
    model, _ = gs.synth_model_pair(64, *wl.BD_BUCKET, seed=wl.SYNTH_MODEL_SEED)
    sigma2 = 10.0
    empty = gs.AcquisitionState.initial(model, sigma2)
    rows = wl.two_class_reference_design(model, sigma2, 4)
    assert np.allclose(rows @ rows.T, np.eye(4), atol=1e-10)
    n = model.dimension
    p1, p2 = (c.covariance + sigma2 * np.eye(n) for c in model.components)
    lam = np.linalg.eigvals(np.linalg.solve(p2, p1)).real
    w1, w2 = model.priors
    f = np.sort(0.5 * (np.log(w1 * lam + w2) - w1 * np.log(lam)))[::-1]
    assert gs.separability_measure(rows, empty, model) == pytest.approx(f[:4].sum(), rel=1e-6)
    ascent = gs.design_classification_block(empty, model, 4, seed=0)
    assert gs.separability_measure(rows, empty, model) >= gs.separability_measure(ascent, empty, model)
