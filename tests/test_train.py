import numpy as np

from helpers import make_image
from gmmsense.model import SignalBatch
from gmmsense.patches import patch_extract
from gmmsense.train import orientation_labels, supervised_gmm, train_gmm_coadapt


def test_orientation_labels_flat_and_stripes():
    stripes = np.tile([1.0, -1.0, 1.0, -1.0], (4, 1))  # varies along x
    signals = np.stack([np.zeros(16), stripes.ravel(), stripes.T.ravel()])
    labels = orientation_labels(SignalBatch(signals=signals), orientation_bins=4)
    # flat -> 1; an x gradient has orientation 0 (first bin, label 2); a y
    # gradient has orientation pi/2 (third of four bins, label 4)
    assert labels.tolist() == [1, 2, 4]


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
