"""Two-step acquisition protocols and experiment reports.

A protocol senses each signal in two phases: a detection phase that
identifies the mixture component (non-adaptive rows, or sequential
adaptive acquisition), and a reconstruction phase that spends the
remaining budget on rows tailored to the detected component. Setting the
detection budget equal to the total budget (K = M) leaves the second phase
empty, which is the single-step batch protocol: `run_two_step` is the one
driver for both. The two phases are chosen independently: any detection
design of STEP1_METHODS runs with any reconstruction design of
STEP2_METHODS.

Sensing rows are chosen here only. _step1_rows builds the non-adaptive
detection rows (random, rip_ab, ida) by name: the K rows every signal of
a batch shares, and the rows of the CLI's design verb. A design that does
not depend on the seed (rip_ab, and every empty-history detection block
unless it starts from a seeded block) is made once per model and kept on
it, so repeated runs on one model, such as one aida_sht call per chunk of
signals, reuse its rows. A batch runs as batched linear algebra: one
likelihood pass over all signals, then _step2_estimates (step-2 rows by
name, their sensing and the Wiener solve) once per decided class.
aida_sht runs signal by signal: sht_run designs every block, the first
included, and _step2_estimates runs for one signal at a time.

All randomness derives from the seed and a purpose tag, so reports are
reproducible and independent of evaluation order. The measurement noise
of a batch is one (S, N) standard-normal draw from the stream
[_TAG_NOISE, seed], N the signal dimension: signal i takes row i, and its
j-th measurement, in acquisition order over both steps, gets entry j.
Row i depends only on (seed, i, N), not on the batch size, the budgets or
the other signals, so runs with different M see the same noise for the
same measurement.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from collections.abc import Mapping
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .adaptive import (
    AcquisitionState,
    AscentOptions,
    _batch_states,
    _bayes_posteriors,
    _is_int,
    design_classification_block,
    design_reconstruction_block,
    measurement_log_likelihoods,
)
from .design import eigen_sensing, random_orthonormal, require_orthonormal_rows, rip_ab
from .inference import map_classify, sht_run, wiener_coefficients
from .model import GmmModel, SignalBatch, _check_sigma2, _freeze, _mean_energy, _readonly

__all__ = [
    "ProtocolConfig",
    "ExperimentReport",
    "run_two_step",
    "sigma2_for_snr_db",
]

STEP1_METHODS = ("random", "rip_ab", "ida", "aida_sht")
STEP2_METHODS = ("eigen_mse", "mi_adaptive")

_TAG_DESIGN = 101
_TAG_NOISE = 202
_TAG_SHT = 303


def _checked_keys(cls, d, what: str) -> dict:
    """A copy of mapping d, or a ValueError naming the keys cls cannot take."""
    if not isinstance(d, Mapping):
        raise ValueError(f"{what} must be a mapping, got {d!r}")
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(unknown)}")
    missing = [
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING and f.name not in d
    ]
    if missing:
        raise ValueError(f"missing {what} key(s): {', '.join(missing)}")
    return dict(d)


@dataclass(frozen=True)
class ProtocolConfig:
    """One acquisition protocol: designs, budgets, noise, and seeds.

    M is the total measurement budget per signal, K the detection budget
    (ignored by aida_sht, which stops on its own), b the adaptive block
    size, P_e the sequential-test error target. Any step1 of STEP1_METHODS
    runs with any step2 of STEP2_METHODS. M, K, b and seed must be
    integers, P_e and sigma2 finite numbers; numpy scalars are accepted and
    stored as Python numbers. Anything else is a ValueError naming the field.
    """

    step1: str
    step2: str
    M: int
    K: int
    b: int = 1
    P_e: float = 0.01
    sigma2: float = 0.0
    ascent: AscentOptions = field(default_factory=AscentOptions)
    seed: int = 0

    def __post_init__(self):
        # Numpy scalars pass and are stored as Python numbers, so to_dict
        # stays JSON-serializable.
        for name in ("M", "K", "b", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        for name in ("P_e", "sigma2"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                isinstance(value, numbers.Real) and math.isfinite(value)
            ):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if self.step1 not in STEP1_METHODS:
            raise ValueError(f"unknown step1 {self.step1!r}, choose from {STEP1_METHODS}")
        if self.step2 not in STEP2_METHODS:
            raise ValueError(f"unknown step2 {self.step2!r}, choose from {STEP2_METHODS}")
        if not 1 <= self.K <= self.M:
            raise ValueError(f"need 1 <= K <= M, got K={self.K}, M={self.M}")
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if not 0.0 < self.P_e < 0.5:
            raise ValueError("P_e must lie in (0, 0.5)")
        _check_sigma2(self.sigma2)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def label(self) -> str:
        return f"{self.step1}+{self.step2}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d) -> "ProtocolConfig":
        """Build a config from a mapping, rejecting unknown and missing keys.

        "ascent" is a mapping of AscentOptions fields (only max_iters), an
        AscentOptions, or null for the defaults.
        """
        d = _checked_keys(cls, d, "protocol config")
        ascent = d.pop("ascent", None)
        if isinstance(ascent, AscentOptions):
            d["ascent"] = ascent
        elif ascent is not None:
            d["ascent"] = AscentOptions(**_checked_keys(AscentOptions, ascent, "ascent"))
        return cls(**d)


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated and per-signal results of one protocol run.

    squared_errors holds per-signal ||x - xhat||^2 / N (per-sample MSE);
    mse is their mean and psnr is computed from that aggregate when the
    batch carries a peak intensity. Wall time is informational and excluded
    from result equality.
    """

    protocol: str
    config: dict
    n_signals: int
    mse: float
    psnr: float | None
    accuracy: float | None
    mean_k: float
    wall_time_s: float
    seed: int
    classes: np.ndarray
    k_used: np.ndarray
    squared_errors: np.ndarray

    def same_results(self, other: "ExperimentReport") -> bool:
        """Exact result equality, ignoring wall time."""
        return (
            self.protocol == other.protocol
            and self.n_signals == other.n_signals
            and self.mse == other.mse
            and self.psnr == other.psnr
            and self.accuracy == other.accuracy
            and self.mean_k == other.mean_k
            and np.array_equal(self.classes, other.classes)
            and np.array_equal(self.k_used, other.k_used)
            and np.array_equal(self.squared_errors, other.squared_errors)
        )

    def to_json_dict(self) -> dict:
        return {
            "protocol": self.protocol,
            "config": self.config,
            "n_signals": self.n_signals,
            "mse": self.mse,
            "psnr": self.psnr,
            "accuracy": self.accuracy,
            "mean_k": self.mean_k,
            "wall_time_s": self.wall_time_s,
            "seed": self.seed,
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def write_per_signal_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("signal,decided_class,k_used,squared_error\n")
            for i in range(self.n_signals):
                fh.write(
                    f"{i},{int(self.classes[i])},{int(self.k_used[i])},"
                    f"{self.squared_errors[i]:.17g}\n"
                )

    CSV_HEADER = (
        "protocol,step1,step2,M,K,b,P_e,sigma2,seed,n_signals,"
        "accuracy,mse,psnr,mean_k,wall_time_s"
    )

    @staticmethod
    def csv_row(d: dict) -> str:
        """One CSV_HEADER row from a report's JSON dict (see to_json_dict).

        A missing accuracy or psnr gives an empty field; any other missing
        field raises KeyError.
        """
        c = d["config"]
        acc = "" if d.get("accuracy") is None else f"{d['accuracy']:.6g}"
        ps = "" if d.get("psnr") is None else f"{d['psnr']:.6g}"
        return (
            f"{d['protocol']},{c['step1']},{c['step2']},{c['M']},{c['K']},"
            f"{c['b']},{c['P_e']},{c['sigma2']},{d['seed']},{d['n_signals']},"
            f"{acc},{d['mse']:.10g},{ps},{d['mean_k']:.6g},{d['wall_time_s']:.3f}"
        )


def sigma2_for_snr_db(batch: SignalBatch, snr_db: float) -> float:
    """Noise variance giving the requested SNR against mean per-sample energy."""
    return _mean_energy(batch) * 10.0 ** (-snr_db / 10.0)


def _noise(config: ProtocolConfig, n_signals: int, dimension: int) -> np.ndarray:
    """Measurement noise of a batch, one M-vector per signal.

    Row i is sqrt(sigma2) times the first M entries of row i of one
    (n_signals, dimension) standard-normal draw from the stream
    [_TAG_NOISE, seed]. With sigma2 = 0 nothing is drawn.
    """
    if config.sigma2 == 0.0:
        return np.zeros((n_signals, config.M))
    rng = np.random.default_rng([_TAG_NOISE, config.seed])
    return np.sqrt(config.sigma2) * rng.standard_normal((n_signals, dimension))[:, : config.M]


def _sensor(x: np.ndarray, noise: np.ndarray):
    """Oracle sensing x block by block, adding the next entries of noise."""
    used = 0

    def sense(rows: np.ndarray) -> np.ndarray:
        nonlocal used
        y = rows @ x + noise[used : used + rows.shape[0]]
        used += rows.shape[0]
        return y

    return sense


def _step1_rows(
    method: str, model: GmmModel, k: int, sigma2: float, seed, opts: AscentOptions | None = None
) -> np.ndarray:
    """k rows of a non-adaptive detection design: random, rip_ab or ida.

    ida is one classification block on an empty history; sigma2 and opts
    matter only to it. seed drives the random rows and ida's seeded start.
    Seed-free rows are made once per model: ida's are kept by
    design_classification_block, rip_ab's here, in the model's _design_memo.
    The rows are checked orthonormal on every call.
    """
    if method == "random":
        rows = random_orthonormal(k, model.dimension, seed=seed).rows
    elif method == "ida":
        empty = AcquisitionState.initial(model, sigma2, block_size=k)
        rows = design_classification_block(empty, model, k, seed, opts)
    elif method == "rip_ab":
        rows = model._design_memo.get(("rip_ab", k))
        if rows is None:
            rows = model._design_memo[("rip_ab", k)] = _readonly(rip_ab(model, k).rows)
    else:
        raise ValueError(f"{method!r} is not a non-adaptive design")
    require_orthonormal_rows(rows, "step-1")
    return rows


def _step2_estimates(config, state, model, gamma: int, y1, x, noise) -> np.ndarray:
    """Step 2 for signals x (S, N) decided as class gamma: (S, N) estimates.

    All S share the detection rows of state, which measured y1 (S, k);
    noise (S, M) holds their noise rows. One step-2 design for gamma fills
    the budget M (it reads the history only through its rows and sigma2),
    is sensed, and each signal gets the Wiener estimate under gamma.
    """
    comp = model.component(gamma)
    rows, y = state.rows, y1
    k = rows.shape[0]
    if config.M > k:
        if config.step2 == "eigen_mse":
            rows2 = eigen_sensing(comp, config.M - k).rows
        else:
            rows2 = design_reconstruction_block(state, model, gamma, config.M - k)
        rows = np.vstack([rows, rows2])
        y = np.hstack([y, x @ rows2.T + noise[:, k:]])
    alpha = wiener_coefficients(y - rows @ comp.mean, rows, comp, config.sigma2)
    return comp.mean + (comp.basis @ alpha.T).T


def _run_shared(config: ProtocolConfig, batch: SignalBatch, model: GmmModel, noise):
    """Non-adaptive detection: every signal is sensed with the same K rows.

    The rows are checked once, the class log-likelihoods of the whole batch
    come from one factorization of the G class measurement covariances,
    and each decided class gets one step-2 design and one Wiener solve
    for all of its signals. Each signal still gets its own acquisition
    state (likelihoods and Bayes-updated priors) and its own map_classify.
    The rows, the (S, K) measurements and the (S, G) likelihoods and
    priors are frozen once, after measurement_log_likelihoods has checked
    them, so the states share the rows and hold row views of the rest
    instead of copies (model._readonly states when an array is shared);
    nothing may re-enable writes on them while the states live.
    adaptive._batch_states builds the states and checks the batch once,
    by the same check a single state runs on itself.
    """
    rows1 = _readonly(_step1_rows(
        config.step1, model, config.K, config.sigma2, [_TAG_DESIGN, config.seed], config.ascent
    ))
    k, n = config.K, batch.n_signals
    x = batch.signals
    y1 = x @ rows1.T + noise[:, :k]
    loglik = measurement_log_likelihoods(rows1, y1, model, config.sigma2)
    priors = _bayes_posteriors(loglik, model.priors)
    _freeze(y1, loglik, priors)
    states = _batch_states(rows1, y1, config.sigma2, config.b, loglik, priors)
    classes = np.array([map_classify(state, model) for state in states], dtype=int)
    estimates = np.empty_like(x)
    for gamma in np.unique(classes).tolist():
        idx = np.flatnonzero(classes == gamma)
        estimates[idx] = _step2_estimates(
            config, states[idx[0]], model, gamma, y1[idx], x[idx], noise[idx]
        )
    return classes, np.full(n, k), estimates


def _run_sequential(config: ProtocolConfig, batch: SignalBatch, model: GmmModel, noise):
    """aida_sht detection: one sht_run per signal, which designs every block."""
    n = batch.n_signals
    classes = np.empty(n, dtype=int)
    k_used = np.empty(n, dtype=int)
    estimates = np.empty_like(batch.signals)
    for i, x in enumerate(batch.signals):
        outcome = sht_run(
            _sensor(x, noise[i]),
            model,
            config.b,
            config.M,
            config.P_e,
            sigma2=config.sigma2,
            seed=(_TAG_SHT, config.seed, i),
            opts=config.ascent,
        )
        gamma, state = outcome.final_class, outcome.state
        estimates[i] = _step2_estimates(
            config, state, model, gamma, state.measurements[None], x[None], noise[i : i + 1]
        )[0]
        classes[i] = gamma
        k_used[i] = state.n_measurements
    return classes, k_used, estimates


def _finalize(
    config: ProtocolConfig,
    batch: SignalBatch,
    classes: np.ndarray,
    k_used: np.ndarray,
    squared_errors: np.ndarray,
    t_start: float,
) -> ExperimentReport:
    accuracy = None
    if batch.labels is not None:
        accuracy = float(np.mean(classes == batch.labels))
    mse = float(np.mean(squared_errors))
    i_max = batch.provenance.get("i_max")
    psnr_value: float | None = None
    if i_max is not None:
        psnr_value = float("inf") if mse == 0.0 else float(
            10.0 * np.log10(float(i_max) ** 2 / mse)
        )
    return ExperimentReport(
        protocol=config.label,
        config=config.to_dict(),
        n_signals=batch.n_signals,
        mse=mse,
        psnr=psnr_value,
        accuracy=accuracy,
        mean_k=float(np.mean(k_used)),
        wall_time_s=time.perf_counter() - t_start,
        seed=config.seed,
        classes=classes,
        k_used=k_used,
        squared_errors=squared_errors,
    )


def run_two_step(
    config: ProtocolConfig, batch: SignalBatch, model: GmmModel
) -> ExperimentReport:
    """Two-step protocol: detect the component, then sense for it.

    Detection uses K rows of the configured step-1 design (or a sequential
    adaptive acquisition for aida_sht, budgeted at M); the remaining rows
    come from the step-2 design for the detected component, and the signal
    is reconstructed from all rows stacked. With K = M the second step is
    empty, which is the single-step batch protocol for the non-adaptive
    designs: M rows of the step-1 design, classify, reconstruct.

    The non-adaptive designs (random, rip_ab, ida) run the whole batch at
    once: one likelihood pass, then one step-2 design and one Wiener solve
    per decided class; aida_sht runs signal by signal. Signal i's noise is
    row i of one standard-normal draw of N columns from the stream
    [_TAG_NOISE, seed], used in acquisition order, so its report does not
    depend on the batch size or on the other signals.
    A budget M above the model's dimension and labels above its class
    count are rejected with ValueError.
    """
    if config.M > model.dimension:
        raise ValueError(
            f"budget M={config.M} exceeds the signal dimension {model.dimension}"
        )
    if batch.dimension != model.dimension:
        raise ValueError("batch dimension does not match the model")
    if batch.labels is not None and batch.labels.max() > model.n_components:
        raise ValueError(
            f"labels go up to {batch.labels.max()}, but the model has "
            f"{model.n_components} classes"
        )
    t0 = time.perf_counter()
    noise = _noise(config, batch.n_signals, batch.dimension)
    run = _run_sequential if config.step1 == "aida_sht" else _run_shared
    classes, k_used, estimates = run(config, batch, model, noise)
    squared_errors = np.sum((batch.signals - estimates) ** 2, axis=1) / batch.dimension
    return _finalize(config, batch, classes, k_used, squared_errors, t0)
