import numpy as np
import pytest

from gmmsense import synthetic
from gmmsense._linalg import SingularMatrixError, sym_floored_eigh
from gmmsense.model import GaussianComponent
from gmmsense.synthetic import (
    bhattacharyya_distance,
    power_law_eigenvalues,
    synth_covariance,
    synth_covariance_pair,
    synth_model_pair,
)


def comp_from_diag(diag):
    return GaussianComponent.from_moments(
        np.zeros(len(diag)), np.diag(np.asarray(diag, dtype=float))
    )


class TestBhattacharyyaDistance:
    def test_identical_covariances_give_exact_zero(self):
        c = comp_from_diag([3.0, 1.0, 0.5])
        assert bhattacharyya_distance(c, c) == 0.0

    def test_scalar_diagonal_closed_form(self):
        # 0.5 * ln(|avg| / sqrt(|S0||S1|)) with avg = diag(2.5, 2.5):
        # 0.5 * ln(6.25 / 4) = ln(2.5) - ln(2)
        c0 = comp_from_diag([1.0, 1.0])
        c1 = comp_from_diag([4.0, 4.0])
        expected = np.log(2.5) - np.log(2.0)
        assert abs(bhattacharyya_distance(c0, c1) - expected) < 1e-12

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        c0 = GaussianComponent.from_moments(np.zeros(4), a @ a.T + np.eye(4))
        c1 = GaussianComponent.from_moments(np.zeros(4), b @ b.T + np.eye(4))
        assert bhattacharyya_distance(c0, c1) == bhattacharyya_distance(c1, c0)

    def test_nonnegative(self):
        for s in range(5):
            rng = np.random.default_rng(s)
            a = rng.standard_normal((5, 5))
            b = rng.standard_normal((5, 5))
            c0 = GaussianComponent.from_moments(np.zeros(5), a @ a.T + 0.1 * np.eye(5))
            c1 = GaussianComponent.from_moments(np.zeros(5), b @ b.T + 0.1 * np.eye(5))
            assert bhattacharyya_distance(c0, c1) >= 0.0

    def test_rejects_zero_covariance(self):
        c0 = GaussianComponent(
            mean=np.zeros(2),
            covariance=np.zeros((2, 2)),
            basis=np.eye(2),
            eigenvalues=np.zeros(2),
        )
        c1 = comp_from_diag([1.0, 1.0])
        with pytest.raises(SingularMatrixError):
            bhattacharyya_distance(c0, c1)

    def test_rejects_nonzero_means(self):
        c0 = GaussianComponent.from_moments(np.ones(2), np.eye(2))
        c1 = comp_from_diag([1.0, 1.0])
        with pytest.raises(ValueError):
            bhattacharyya_distance(c0, c1)


class TestSynthCovariance:
    def test_eigenvalue_formula_exact(self):
        c = synth_covariance(4, r=1.0, beta=4.0, omega=3, seed=0)
        expected = np.array([10000.0, 1250.0, 10000.0 / 27.0, 156.25])
        assert np.allclose(c.eigenvalues, expected, rtol=1e-15)

    def test_same_seed_bitwise_identical(self):
        a = synth_covariance(8, 0.5, 5.0, 4, seed=42)
        b = synth_covariance(8, 0.5, 5.0, 4, seed=42)
        assert np.array_equal(a.covariance, b.covariance)
        assert np.array_equal(a.basis, b.basis)

    def test_different_seed_differs(self):
        a = synth_covariance(8, 0.5, 5.0, 4, seed=42)
        b = synth_covariance(8, 0.5, 5.0, 4, seed=43)
        assert np.linalg.norm(a.covariance - b.covariance) > 0

    def test_spectrum_formula_across_parameter_grid(self):
        for r in (0.1, 0.5, 1.0):
            for beta in (4.0, 6.0, 8.0):
                for omega in (3, 4):
                    c = synth_covariance(6, r, beta, omega, seed=1)
                    expected = power_law_eigenvalues(6, r, beta, omega)
                    assert np.allclose(c.eigenvalues, expected, rtol=1e-12)
                    recon = (c.basis * c.eigenvalues) @ c.basis.T
                    assert np.linalg.norm(recon - c.covariance) <= 1e-8 * (
                        1 + np.linalg.norm(c.covariance)
                    )

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=1, r=1.0, beta=4.0, omega=3),
            dict(n=4, r=0.0, beta=4.0, omega=3),
            dict(n=4, r=1.5, beta=4.0, omega=3),
            dict(n=4, r=1.0, beta=3.0, omega=3),
            dict(n=4, r=1.0, beta=9.0, omega=3),
            dict(n=4, r=1.0, beta=4.0, omega=5),
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            synth_covariance(**kwargs, seed=0)


class TestPairGeneration:
    def test_bucketed_pair_lands_in_range(self):
        c0, c1, bd = synth_covariance_pair(36, 30.0, 46.0, seed=5)
        assert 30.0 <= bd < 46.0
        # the reported distance is reproducible from the components
        assert abs(bhattacharyya_distance(c0, c1) - bd) < 1e-12

    def test_model_pair_priors(self):
        model, bd = synth_model_pair(36, 30.0, 46.0, seed=5)
        assert np.array_equal(model.priors, [0.5, 0.5])
        assert 30.0 <= bd < 46.0

    def test_unreachable_bucket_raises(self, monkeypatch):
        # 10,000 real draws at n=4 take seconds; 20 show the same give-up.
        monkeypatch.setattr(synthetic, "_MAX_ATTEMPTS", 20)
        with pytest.raises(RuntimeError, match="after 20 attempts"):
            synth_covariance_pair(4, 1000.0, 1001.0, seed=0)


def unscreened_pair(n, bd_low, bd_high, seed):
    """The sampler with no screen: every draw built in full and measured.

    Log-determinants come from full eigendecompositions, as they did before
    the distance switched to eigenvalues only. Returns the accepted attempt,
    the two components and their distance.
    """

    def logdet(a):
        return float(np.sum(np.log(sym_floored_eigh(a)[0])))

    for attempt in range(synthetic._MAX_ATTEMPTS):
        comps = []
        for side in (0, 1):
            rng = np.random.default_rng([seed, attempt, side])
            r = 1.0 - rng.random()
            beta = rng.uniform(4.0, 8.0)
            omega = int(rng.choice([3, 4]))
            comps.append(synth_covariance(n, r, beta, omega, seed=[seed, attempt, side, 1]))
        s0, s1 = comps[0].covariance, comps[1].covariance
        bd = 0.5 * (logdet(0.5 * (s0 + s1)) - 0.5 * (logdet(s0) + logdet(s1)))
        if bd_low <= bd < bd_high:
            return attempt, comps[0], comps[1], bd
    raise AssertionError("the bucket is out of reach")


def record_draws(monkeypatch):
    """Attempts whose bases synth_covariance_pair draws, in order."""
    attempts = []
    draw = synthetic._draw_covariance

    def recording(vals, seed):
        attempts.append(seed[1])
        return draw(vals, seed)

    monkeypatch.setattr(synthetic, "_draw_covariance", recording)
    return attempts


def sampler_spectra(n, rng):
    """Two spectra drawn from the sampler's parameter ranges."""
    return [
        power_law_eigenvalues(
            n, 1.0 - rng.random(), rng.uniform(4.0, 8.0), int(rng.choice([3, 4]))
        )
        for _ in (0, 1)
    ]


class TestDistanceScreen:
    @pytest.mark.parametrize(
        "n, bd_low, bd_high, seed, attempt, screened",
        [
            (64, 30.0, 46.0, 0, 2, 1),
            (64, 30.0, 46.0, 1, 7, 3),
            (36, 30.0, 46.0, 5, 1, 0),
            (16, 3.0, 30.0, 1, 1, 1),
            (32, 3.0, 30.0, 2, 2, 2),
        ],
    )
    def test_screen_returns_the_unscreened_pair(
        self, n, bd_low, bd_high, seed, attempt, screened, monkeypatch
    ):
        ref_attempt, ref0, ref1, ref_bd = unscreened_pair(n, bd_low, bd_high, seed)
        drawn = record_draws(monkeypatch)
        c0, c1, bd = synth_covariance_pair(n, bd_low, bd_high, seed=seed)
        assert ref_attempt == attempt and drawn[-1] == attempt
        # both sides of each drawn attempt; the others were screened out
        assert len(drawn) == 2 * (attempt + 1 - screened)
        for got, ref in ((c0, ref0), (c1, ref1)):
            for field in ("mean", "covariance", "basis", "eigenvalues"):
                assert np.array_equal(getattr(got, field), getattr(ref, field))
            assert got.prior == ref.prior
        assert abs(bd - ref_bd) <= 1e-9

    @pytest.mark.parametrize("n", [4, 16, 64, 128])
    def test_distance_lies_in_its_spectral_interval(self, n):
        rng = np.random.default_rng(n)
        for i in range(150):
            a, b = sampler_spectra(n, rng)
            lo, hi = synthetic._distance_interval(a, b)
            s0 = synthetic._draw_covariance(a, [n, i, 0])[1]
            s1 = synthetic._draw_covariance(b, [n, i, 1])[1]
            bd = synthetic._covariance_distance(s0, s1)
            slack = synthetic._SCREEN_SLACK
            assert lo - slack <= bd <= hi + slack

    def test_interval_is_exact_for_aligned_bases(self):
        # equal bases with matched or reversed spectra attain the two bounds
        a = power_law_eigenvalues(6, 1.0, 4.0, 3)
        b = power_law_eigenvalues(6, 0.5, 6.0, 4)
        lo, hi = synthetic._distance_interval(a, b)
        assert abs(synthetic._covariance_distance(np.diag(a), np.diag(b)) - lo) < 1e-12
        assert abs(synthetic._covariance_distance(np.diag(a), np.diag(b[::-1])) - hi) < 1e-12

    def test_a_spectrum_below_the_floor_guard_is_never_screened(self):
        # 200^-4 = 6.25e-10 < 1e-9: the floor may bind, so no bucket rules it out
        wide = power_law_eigenvalues(200, 1.0, 8.0, 4)
        narrow = power_law_eigenvalues(200, 1.0, 4.0, 3)
        assert synthetic._distance_interval(wide, narrow) is None
        assert synthetic._distance_interval(narrow, wide) is None
        assert not synthetic._ruled_out(wide, narrow, 1e6, 1e6 + 1.0)
        # 128^-4 = 3.7e-9 passes the guard, and the same bucket is ruled out
        wide = power_law_eigenvalues(128, 1.0, 8.0, 4)
        narrow = power_law_eigenvalues(128, 1.0, 4.0, 3)
        assert synthetic._distance_interval(wide, narrow) is not None
        assert synthetic._ruled_out(wide, narrow, 1e6, 1e6 + 1.0)

    def test_screened_draws_build_nothing(self, monkeypatch):
        monkeypatch.setattr(synthetic, "_MAX_ATTEMPTS", 200)
        drawn = record_draws(monkeypatch)
        built = []
        monkeypatch.setattr(synthetic, "synth_covariance", lambda *a, **k: built.append(a))
        with pytest.raises(RuntimeError, match=r"\[30.0, 46.0\) after 200 attempts"):
            synth_covariance_pair(8, 30.0, 46.0, seed=0)
        assert drawn == [] and built == []

    def test_parameters_are_checked_before_the_screen(self):
        # a dimension-1 spectrum would be screened out of any bucket
        with pytest.raises(ValueError, match="dimension must be >= 2"):
            synth_covariance_pair(1, 30.0, 46.0, seed=0)
