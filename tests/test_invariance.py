"""Symmetries of the model that the protocols and designs must respect.

A random 4-class model on N = 16 with distinct means and priors 0.4, 0.3,
0.2, 0.1, at sigma2 = 0.05. Each check needs no reference implementation:
- scale: x -> c x, mu_g -> c mu_g, Sigma_g -> c^2 Sigma_g and sigma2 ->
  c^2 sigma2 leave every decision unchanged and scale the errors by c^2;
- class order: permuting the classes permutes the measurement
  log-likelihoods, bitwise;
- rotation: Sigma_g -> U Sigma_g U^T and mu_g -> U mu_g (with the history's
  rows rotated along) leave the score of the designed block unchanged.
"""

import numpy as np
import pytest

from helpers import random_spd
from gmmsense import (
    AcquisitionState,
    GaussianComponent,
    GmmModel,
    ProtocolConfig,
    SignalBatch,
    design_classification_block,
    run_two_step,
    sample_signals,
    separability_measure,
)
from gmmsense.adaptive import measurement_log_likelihoods
from gmmsense.design import random_orthonormal

N, G, SIGMA2 = 16, 4, 0.05
PRIORS = (0.4, 0.3, 0.2, 0.1)


def build_model(scale=1.0, rotation=None, order=range(G)):
    """The test model, optionally scaled, rotated, or with its classes reordered."""
    means = np.random.default_rng(0).normal(scale=0.5, size=(G, N))
    components = []
    for g in order:
        cov, mean = random_spd(N, 10 + g), means[g]
        if rotation is not None:
            cov, mean = rotation @ cov @ rotation.T, rotation @ mean
        components.append(
            GaussianComponent.from_moments(scale * mean, scale**2 * cov, PRIORS[g])
        )
    return GmmModel(components=tuple(components))


@pytest.fixture(scope="module")
def model():
    return build_model()


@pytest.fixture(scope="module")
def batch(model):
    return sample_signals(model, 24, seed=1)


# b only matters to the sequential test.
@pytest.mark.parametrize(
    "step1, b", [("random", 1), ("rip_ab", 1), ("ida", 1), ("aida_sht", 1), ("aida_sht", 2)]
)
def test_scaling_signals_model_and_noise_keeps_every_decision(step1, b, model, batch):
    def run(c, m):
        config = ProtocolConfig(step1, "mi_adaptive", M=8, K=4, b=b, sigma2=c**2 * SIGMA2, seed=3)
        return run_two_step(config, SignalBatch(signals=c * batch.signals, labels=batch.labels), m)

    base = run(1.0, model)
    for c in (1e-3, 1e3):
        scaled = run(c, build_model(c))
        assert np.array_equal(scaled.classes, base.classes)
        assert np.array_equal(scaled.k_used, base.k_used)
        # Measured at most 1.3e-9 (aida_sht, b = 2: the ascent's relative
        # stop can fall one rounding apart); every other case within 4e-14.
        np.testing.assert_allclose(scaled.squared_errors / c**2, base.squared_errors, rtol=1e-6)


def test_permuting_the_classes_permutes_the_log_likelihoods_bitwise(model, batch):
    order = [2, 0, 3, 1]
    permuted = build_model(order=order)
    rows = random_orthonormal(5, N, seed=4).rows
    y = batch.signals @ rows.T
    loglik = measurement_log_likelihoods(rows, y, model, SIGMA2)
    assert np.array_equal(measurement_log_likelihoods(rows, y, permuted, SIGMA2), loglik[:, order])
    assert np.array_equal(
        measurement_log_likelihoods(rows, y[0], permuted, SIGMA2), loglik[0, order]
    )


@pytest.mark.parametrize("history", [0, 2])
@pytest.mark.parametrize("b", [1, 3])
def test_rotating_the_model_keeps_the_design_score(b, history, model, batch):
    u, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((N, N)))
    rotated = build_model(rotation=u)
    state = AcquisitionState.initial(model, SIGMA2, b)
    turned = AcquisitionState.initial(rotated, SIGMA2, b)
    if history:
        rows = random_orthonormal(history, N, seed=6).rows
        y = rows @ batch.signals[0]
        state = state.append_block(rows, y, model)
        turned = turned.append_block(rows @ u.T, y, rotated)
    score = separability_measure(design_classification_block(state, model, b), state, model)
    turned_score = separability_measure(
        design_classification_block(turned, rotated, b), turned, rotated
    )
    assert turned_score == pytest.approx(score, rel=1e-8)
