"""Two-step acquisition protocols and experiment reports.

A protocol senses each signal in two phases: a detection phase that
identifies the mixture component (non-adaptive rows, or sequential
adaptive acquisition), and a reconstruction phase that spends the
remaining budget on rows tailored to the detected component. Setting the
detection budget equal to the total budget (K = M) leaves the second phase
empty, which is the single-step batch protocol: `run_two_step` is the one
driver for both.

All randomness derives from (seed, purpose tag, signal index), so reports
are reproducible and independent of evaluation order.
"""

from __future__ import annotations

import json
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .adaptive import (
    AcquisitionState,
    AscentOptions,
    design_classification_block,
    design_reconstruction_block,
)
from .design import eigen_sensing, random_orthonormal, rip_ab
from .inference import map_classify, sht_run, wiener_coefficients
from .model import GmmModel, SignalBatch

__all__ = [
    "ProtocolConfig",
    "ExperimentReport",
    "run_two_step",
    "sigma2_for_snr_db",
    "VALID_PROTOCOL_PAIRS",
]

STEP1_METHODS = ("random", "rip_ab", "ida", "aida_sht")
STEP2_METHODS = ("eigen_mse", "mi_adaptive")

# Protocol pairs from the published configuration table.
VALID_PROTOCOL_PAIRS = (
    ("random", "eigen_mse"),
    ("rip_ab", "eigen_mse"),
    ("ida", "eigen_mse"),
    ("ida", "mi_adaptive"),
    ("aida_sht", "mi_adaptive"),
)

_TAG_DESIGN = 101
_TAG_NOISE = 202
_TAG_SHT = 303


def _checked_keys(cls, d: dict, what: str) -> dict:
    """A copy of d, or a ValueError naming the keys cls cannot take."""
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
    size, P_e the sequential-test error target. Pairs outside the standard
    configuration table are rejected unless allow_nonstandard is set.
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
    allow_nonstandard: bool = False

    def __post_init__(self):
        if self.step1 not in STEP1_METHODS:
            raise ValueError(f"unknown step1 {self.step1!r}, choose from {STEP1_METHODS}")
        if self.step2 not in STEP2_METHODS:
            raise ValueError(f"unknown step2 {self.step2!r}, choose from {STEP2_METHODS}")
        if not (self.step1, self.step2) in VALID_PROTOCOL_PAIRS and not self.allow_nonstandard:
            pairs = ", ".join(f"{a}+{b}" for a, b in VALID_PROTOCOL_PAIRS)
            raise ValueError(
                f"protocol pair {self.step1}+{self.step2} is not a standard "
                f"configuration (valid: {pairs}); pass allow_nonstandard=True "
                f"to run it anyway"
            )
        if not 1 <= self.K <= self.M:
            raise ValueError(f"need 1 <= K <= M, got K={self.K}, M={self.M}")
        if self.b < 1:
            raise ValueError("b must be >= 1")
        if not 0.0 < self.P_e < 0.5:
            raise ValueError("P_e must lie in (0, 0.5)")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be >= 0")

    def validate_against(self, model: GmmModel) -> None:
        if self.M > model.dimension:
            raise ValueError(
                f"budget M={self.M} exceeds the signal dimension {model.dimension}"
            )

    @property
    def label(self) -> str:
        return f"{self.step1}+{self.step2}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ProtocolConfig":
        """Build a config from a dict, rejecting unknown and missing keys."""
        d = _checked_keys(cls, d, "protocol config")
        ascent = d.pop("ascent", None)
        if isinstance(ascent, dict):
            d["ascent"] = AscentOptions(**_checked_keys(AscentOptions, ascent, "ascent"))
        elif isinstance(ascent, AscentOptions):
            d["ascent"] = ascent
        elif ascent is not None:
            raise ValueError(f"ascent must be a mapping of ascent options, got {ascent!r}")
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
    energy = float(np.mean(np.sum(batch.signals**2, axis=1)) / batch.dimension)
    return energy * 10.0 ** (-snr_db / 10.0)


def _noise_rng(config: ProtocolConfig, index: int) -> np.random.Generator:
    return np.random.default_rng([_TAG_NOISE, config.seed, index])


def _measure(
    rows: np.ndarray, x: np.ndarray, sigma2: float, rng: np.random.Generator
) -> np.ndarray:
    y = rows @ x
    if sigma2 > 0.0:
        y = y + np.sqrt(sigma2) * rng.standard_normal(rows.shape[0])
    return y


def _step1_design(config: ProtocolConfig, model: GmmModel) -> np.ndarray:
    """Shared K-row non-adaptive detection design for a whole batch."""
    k = config.K
    if config.step1 == "random":
        return random_orthonormal(k, model.dimension, seed=[_TAG_DESIGN, config.seed]).rows
    if config.step1 == "rip_ab":
        return rip_ab(model, k).rows
    if config.step1 == "ida":
        empty = AcquisitionState.initial(model, config.sigma2, block_size=k)
        return design_classification_block(
            empty, model, k, seed=[_TAG_DESIGN, config.seed], opts=config.ascent
        )
    raise ValueError(f"{config.step1!r} is not a non-adaptive design")


def _reconstruct(
    rows: np.ndarray, y: np.ndarray, model: GmmModel, gamma: int, sigma2: float
) -> np.ndarray:
    comp = model.component(gamma)
    alpha = wiener_coefficients(y - rows @ comp.mean, rows, comp, sigma2)
    return comp.mean + comp.basis @ alpha


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
    """
    config.validate_against(model)
    if batch.dimension != model.dimension:
        raise ValueError("batch dimension does not match the model")
    t0 = time.perf_counter()
    n = batch.n_signals
    classes = np.empty(n, dtype=int)
    k_used = np.empty(n, dtype=int)
    squared_errors = np.empty(n)

    sht_first_block = None
    step1_rows = None
    if config.step1 == "aida_sht":
        empty = AcquisitionState.initial(model, config.sigma2, config.b)
        sht_first_block = design_classification_block(
            empty, model, config.b, seed=[_TAG_DESIGN, config.seed], opts=config.ascent
        )
    else:
        step1_rows = _step1_design(config, model)

    for i in range(n):
        x = batch.signals[i]
        rng = _noise_rng(config, i)
        if config.step1 == "aida_sht":
            outcome = sht_run(
                lambda rows: _measure(rows, x, config.sigma2, rng),
                model,
                config.b,
                config.M,
                config.P_e,
                sigma2=config.sigma2,
                seed=(_TAG_SHT, config.seed, i),
                first_block=sht_first_block,
                opts=config.ascent,
            )
            gamma = outcome.final_class
            state = outcome.state
            k_i = outcome.measurements_used
        else:
            y1 = _measure(step1_rows, x, config.sigma2, rng)
            state = AcquisitionState.initial(
                model, config.sigma2, config.b
            ).append_block(step1_rows, y1, model)
            gamma = map_classify(state, model)
            k_i = config.K

        m2 = config.M - k_i
        if m2 > 0:
            if config.step2 == "eigen_mse":
                rows2 = eigen_sensing(model.component(gamma), m2).rows
            else:
                rows2 = design_reconstruction_block(state, model, gamma, m2)
            y2 = _measure(rows2, x, config.sigma2, rng)
            rows_all = np.vstack([state.rows, rows2])
            y_all = np.concatenate([state.measurements, y2])
        else:
            rows_all = state.rows
            y_all = state.measurements

        xhat = _reconstruct(rows_all, y_all, model, gamma, config.sigma2)
        classes[i] = gamma
        k_used[i] = k_i
        squared_errors[i] = float(np.sum((x - xhat) ** 2) / batch.dimension)

    return _finalize(config, batch, classes, k_used, squared_errors, t0)
