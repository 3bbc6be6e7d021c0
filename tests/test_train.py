import numpy as np
import pytest

from helpers import make_image, random_model
from gmmsense.model import SignalBatch
from gmmsense import train
from gmmsense.patches import patch_extract
from gmmsense.train import (
    LOAD_REL,
    init_gmm_by_orientation,
    orientation_labels,
    regularize_model,
    supervised_gmm,
    train_gmm,
    train_gmm_coadapt,
)


def test_orientation_labels_flat_and_stripes():
    stripes = np.tile([1.0, -1.0, 1.0, -1.0], (4, 1))  # varies along x
    signals = np.stack([np.zeros(16), stripes.ravel(), stripes.T.ravel()])
    labels = orientation_labels(SignalBatch(signals=signals), orientation_bins=4)
    # flat -> 1; an x gradient has orientation 0 (first bin, label 2); a y
    # gradient has orientation pi/2 (third of four bins, label 4)
    assert labels.tolist() == [1, 2, 4]


def test_orientation_labels_do_not_depend_on_the_chunk_size(monkeypatch):
    batch = patch_extract(make_image(4), 8, overlap=True)
    assert batch.n_signals > train._ORIENTATION_CHUNK
    chunked = orientation_labels(batch)
    assert len(np.unique(chunked)) > 10
    monkeypatch.setattr(train, "_ORIENTATION_CHUNK", batch.n_signals)
    assert np.array_equal(orientation_labels(batch), chunked)


def test_supervised_gmm_is_per_class_moments():
    rng = np.random.default_rng(3)
    signals = rng.standard_normal((40, 4)) * [1.0, 2.0, 0.5, 3.0]
    labels = np.repeat([1, 2, 1, 2], 10)
    signals[labels == 2] += 5.0
    model = supervised_gmm(SignalBatch(signals=signals, labels=labels))
    assert model.n_components == 2
    for g, comp in enumerate(model.components, start=1):
        members = signals[labels == g]
        mean = members.mean(axis=0)
        cov = (members - mean).T @ (members - mean) / members.shape[0]
        assert comp.prior == 0.5
        assert np.allclose(comp.mean, mean, rtol=0, atol=1e-12)
        assert np.allclose(comp.covariance, cov, rtol=0, atol=1e-12)


def test_coadapt_random_is_deterministic_for_a_seed():
    batch = patch_extract(make_image(2, size=32), 4, overlap=True)

    def train(seed):
        return train_gmm_coadapt(
            batch, "random", m=8, orientation_bins=2, iters=2, sigma2=0.1, seed=seed
        )

    a, b = train(5), train(5)
    assert a.n_components == 3
    for ca, cb in zip(a.components, b.components):
        assert ca.prior == cb.prior
        assert np.array_equal(ca.mean, cb.mean)
        assert np.array_equal(ca.covariance, cb.covariance)


def test_orientation_init_sparse_bins_keep_global_moments():
    # 4 x 4 patches, 4 orientation bins: three flat patches (label 1), three
    # x-gradient patches (label 2), one y-gradient patch (label 4), and no
    # patch in labels 3 and 5.
    stripes = np.tile([1.0, -1.0, 1.0, -1.0], (4, 1))
    signals = np.stack(
        [np.full(16, c) for c in (0.0, 1.0, 3.0)]
        + [a * stripes.ravel() + c for a, c in ((1.0, 0.0), (2.0, 1.0), (0.5, -1.0))]
        + [stripes.T.ravel()]
    )
    batch = SignalBatch(signals=signals)
    assert orientation_labels(batch, 4).tolist() == [1, 1, 1, 2, 2, 2, 4]
    model = init_gmm_by_orientation(batch, orientation_bins=4)
    assert model.n_components == 5
    assert np.allclose(model.priors, [3 / 7, 3 / 7, 0.0, 1 / 7, 0.0], rtol=0, atol=1e-15)
    mean = signals.mean(axis=0)
    cov = (signals - mean).T @ (signals - mean) / signals.shape[0]
    for g in (3, 4, 5):  # fewer than two patches: the global batch moments
        comp = model.component(g)
        assert np.allclose(comp.mean, mean, rtol=0, atol=1e-12)
        assert np.allclose(comp.covariance, cov, rtol=0, atol=1e-12)
    for g, members in ((1, signals[:3]), (2, signals[3:6])):  # fitted bins
        assert np.allclose(model.component(g).mean, members.mean(axis=0), rtol=0, atol=1e-12)


def test_regularize_model_loads_every_diagonal_by_the_mean_energy():
    model = random_model(5, 3, seed=2)
    signals = np.random.default_rng(4).standard_normal((30, 5)) * 3.0
    batch = SignalBatch(signals=signals)
    load = LOAD_REL * np.mean(np.sum(signals**2, axis=1)) / 5
    loaded = regularize_model(model, batch)
    assert loaded.n_components == 3
    for before, after in zip(model.components, loaded.components):
        assert after.prior == before.prior
        assert np.array_equal(after.mean, before.mean)
        assert np.allclose(after.covariance - before.covariance, load * np.eye(5), rtol=0, atol=1e-14)
        assert np.allclose(after.eigenvalues, before.eigenvalues + load, rtol=1e-12, atol=0)


def test_negative_iters_are_rejected():
    batch = patch_extract(make_image(2, size=32), 4, overlap=True)
    with pytest.raises(ValueError, match="iters must be >= 0, got -1"):
        train_gmm(batch, orientation_bins=2, iters=-1)
    with pytest.raises(ValueError, match="iters must be >= 0, got -3"):
        train_gmm_coadapt(batch, "random", m=8, orientation_bins=2, iters=-3)


def test_negative_orientation_bins_are_rejected_and_zero_is_one_flat_class():
    batch = patch_extract(make_image(2, size=32), 4, overlap=True)
    with pytest.raises(ValueError, match="orientation_bins must be >= 0, got -1"):
        init_gmm_by_orientation(batch, orientation_bins=-1)
    model = train_gmm(batch, orientation_bins=0, iters=1)
    assert model.priors.tolist() == [1.0]
