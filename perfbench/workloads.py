"""The benchmark's workloads: seeded inputs, training, and protocol jobs.

Each workload fixes the signal model or the image set it draws from. The
seed picks the synthetic signals, the measurement noise, and the seeds of
random and ascent designs; the held-out patches are fixed, because the
AIDA time per patch varies several-fold between patches and the few that
AIDA runs on cannot average that out. Fixing the model keeps accuracy,
reconstruction SNR and design scores comparable from seed to seed; a model
redrawn per seed moves them by more than any bound a regression check could
use (BD 35 to 46 changes the 8-row design score from 6.4 to 9.1).

Functions of `gmmsense` are always looked up on the package at call time,
so a tracer installed on the package bindings sees every call made here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import gmmsense as gs

N_SYNTH = 64
BD_BUCKET = (30.0, 46.0)
SYNTH_MODEL_SEED = 0           # BD 43.65
M_BUDGET = 16
K_DETECT = 8
P_E = 0.01
PATCH = 8
ORIENTATION_BINS = 9           # G = 10 classes
TRAIN_IMAGE_SEEDS = (0, 1, 2)  # 3 x 89^2 = 23,763 overlapping training patches
HELDOUT_IMAGE_SEEDS = (100, 101)  # 2 x 144 = 288 non-overlapping patches
IMAGE_SIZE = 96
# Seed tag gmmsense.protocol uses for step-1 designs, so the designs checked
# and scored here are the ones the protocol runs.
DESIGN_TAG = 101
# Offsets keep the seeds of the training sample and of each job apart from
# the evaluation sample's seed.
TRAIN_SEED_OFFSET = 1 << 32
JOB_SEED_STRIDE = 1000


@dataclass(frozen=True)
class Pair:
    step1: str
    step2: str
    b: int

    @property
    def name(self) -> str:
        base = f"{self.step1}-{self.step2}"
        return f"{base}-b{self.b}" if self.step1 == "aida_sht" else base


@dataclass(frozen=True)
class Spec:
    name: str
    pairs: tuple[Pair, ...]
    snr_db: float
    # Shares of the measured window spent repeating set-up and training.
    setup_share: float
    train_share: float
    # Whether the speed probe scales training time. Patch training is large
    # BLAS over ~400 MB of arrays, which does not slow down with the probe.
    scale_training: bool = True


@dataclass(frozen=True)
class Inputs:
    """What set-up builds: the model (None until trained for patches), the
    training signals, and per pair the unlabelled-or-labelled chunks."""

    model: gs.GmmModel | None
    train: gs.SignalBatch
    sigma2: float
    chunks: tuple[tuple[gs.SignalBatch, ...], ...]


@dataclass(frozen=True)
class Job:
    """One `run_two_step` call: a pair, its chunk index, config and batch."""

    pair: Pair
    chunk: int
    config: gs.ProtocolConfig
    batch: gs.SignalBatch


SPECS = {
    "synth-batch": Spec(
        name="synth-batch",
        pairs=(
            Pair("random", "eigen_mse", 8),
            Pair("rip_ab", "eigen_mse", 8),
            Pair("ida", "eigen_mse", 8),
        ),
        snr_db=20.0,
        setup_share=0.05,
        train_share=0.1,
    ),
    "synth-aida": Spec(
        name="synth-aida",
        pairs=(Pair("aida_sht", "mi_adaptive", 1), Pair("aida_sht", "mi_adaptive", 4)),
        snr_db=5.0,
        setup_share=0.05,
        train_share=0.1,
    ),
    "patches-g10": Spec(
        name="patches-g10",
        pairs=(
            Pair("rip_ab", "eigen_mse", 1),
            Pair("ida", "mi_adaptive", 1),
            Pair("aida_sht", "mi_adaptive", 1),
        ),
        snr_db=20.0,
        setup_share=0.03,
        train_share=0.25,
        scale_training=False,
    ),
}

# Evaluation sizes: synth-batch runs one 200-signal batch per pair, so each
# call pays one ida ascent; synth-aida runs 64 chunks of 5 signals; on
# patches the 288 held-out patches go through rip_ab and ida in one call
# and every 2nd of them through aida in 144 chunks of 1. The AIDA time of a
# signal follows its k_used, which the seed moves, and varies several-fold
# between signals; 320 signals per pair on synth-aida and 144 patches keep a
# pass's total within a few percent from seed to seed.
SYNTH_BATCH_SIGNALS = 200
AIDA_CHUNKS, AIDA_CHUNK_SIGNALS = 64, 5
PATCH_AIDA_CHUNKS, PATCH_AIDA_CHUNK_SIGNALS = 144, 1
SYNTH_TRAIN_SIGNALS = 2000
IDA_SCORE_STARTS = 5


def make_image(seed: int, size: int = IMAGE_SIZE) -> np.ndarray:
    """Procedural grayscale image: polygonal regions, oriented texture, edges.

    The same generator as the test suite's `make_image` fixture helper.
    """
    rng = np.random.default_rng([9000, seed])
    yy, xx = np.mgrid[0:size, 0:size].astype(float) / size
    levels = rng.uniform(30, 225, size=10)
    region = np.zeros((size, size), dtype=int)
    for _ in range(6):
        theta = rng.uniform(0, np.pi)
        off = rng.uniform(0.15, 0.85)
        side = np.cos(theta) * xx + np.sin(theta) * yy > off
        region = 2 * region + side.astype(int)
    region = region % len(levels)
    img = levels[region]
    for _ in range(4):
        theta = rng.uniform(0, np.pi)
        freq = rng.uniform(6, 18)
        amp = rng.uniform(10, 30)
        phase = rng.uniform(0, 2 * np.pi)
        t = np.cos(theta) * xx + np.sin(theta) * yy
        pick = region == rng.integers(0, len(levels))
        img = img + amp * np.sin(2 * np.pi * freq * t + phase) * pick
    img += 20.0 * ((xx - 0.5) * rng.standard_normal() + (yy - 0.5) * rng.standard_normal())
    img += 1.5 * rng.standard_normal((size, size))
    return np.clip(img, 0, 255)


def _split(batch: gs.SignalBatch, n_chunks: int, size: int) -> tuple[gs.SignalBatch, ...]:
    return tuple(
        gs.SignalBatch(
            signals=batch.signals[c * size : (c + 1) * size],
            labels=None if batch.labels is None else batch.labels[c * size : (c + 1) * size],
        )
        for c in range(n_chunks)
    )


def setup(spec: Spec, seed: int) -> Inputs:
    """Build the model (synthetic), images, patches and signals for a seed."""
    if spec.name == "patches-g10":
        train = [gs.patch_extract(make_image(s), PATCH, overlap=True) for s in TRAIN_IMAGE_SEEDS]
        heldout = [gs.patch_extract(make_image(s), PATCH) for s in HELDOUT_IMAGE_SEEDS]
        train_batch = gs.SignalBatch(signals=np.vstack([b.signals for b in train]))
        pool = gs.SignalBatch(signals=np.vstack([b.signals for b in heldout]))
        sigma2 = gs.sigma2_for_snr_db(pool, spec.snr_db)
        n_aida = PATCH_AIDA_CHUNKS * PATCH_AIDA_CHUNK_SIGNALS
        aida = gs.SignalBatch(signals=pool.signals[:: pool.n_signals // n_aida][:n_aida])
        chunks = ((pool,), (pool,), _split(aida, PATCH_AIDA_CHUNKS, PATCH_AIDA_CHUNK_SIGNALS))
        return Inputs(model=None, train=train_batch, sigma2=sigma2, chunks=chunks)

    model, _ = gs.synth_model_pair(N_SYNTH, *BD_BUCKET, seed=SYNTH_MODEL_SEED)
    train_batch = gs.sample_signals(model, SYNTH_TRAIN_SIGNALS, seed=seed + TRAIN_SEED_OFFSET)
    if spec.name == "synth-batch":
        batch = gs.sample_signals(model, SYNTH_BATCH_SIGNALS, seed=seed)
        chunks = tuple((batch,) for _ in spec.pairs)
    else:
        batch = gs.sample_signals(model, AIDA_CHUNKS * AIDA_CHUNK_SIGNALS, seed=seed)
        split = _split(batch, AIDA_CHUNKS, AIDA_CHUNK_SIGNALS)
        chunks = tuple(split for _ in spec.pairs)
    sigma2 = model_sigma2(model, spec.snr_db)
    return Inputs(model=model, train=train_batch, sigma2=sigma2, chunks=chunks)


def model_sigma2(model: gs.GmmModel, snr_db: float) -> float:
    """Noise variance for an SNR against the model's expected per-sample energy.

    The energy of a sampled batch is dominated by a few large eigenvalues
    and varies by seed; taking it from the model keeps sigma2, and with it
    the design scores and mean_k, the same for every seed.
    """
    energy = sum(
        c.prior * (float(np.sum(c.eigenvalues)) + float(c.mean @ c.mean)) for c in model.components
    ) / model.dimension
    return energy * 10.0 ** (-snr_db / 10.0)


def train(spec: Spec, inputs: Inputs) -> gs.GmmModel:
    """The workload's model learning step.

    Patches: `train_gmm` on the overlapping training patches; its model is
    the one the protocols run with. Synthetic: a class-wise moment fit of
    the labelled training sample refined by two `map_em` passes with
    identity rows at the workload noise level; the protocols keep the true
    model, so this only measures learning throughput.
    """
    if spec.name == "patches-g10":
        return gs.train_gmm(inputs.train, orientation_bins=ORIENTATION_BINS)
    init = gs.supervised_gmm(inputs.train)
    identity = gs.SensingMatrix(rows=np.eye(inputs.train.dimension))
    return gs.map_em(inputs.train.signals, identity, init, inputs.sigma2, kappa=2)


def protocol_model(inputs: Inputs, trained: gs.GmmModel) -> gs.GmmModel:
    return trained if inputs.model is None else inputs.model


def reference_labels(batch: gs.SignalBatch, model: gs.GmmModel, sigma2: float) -> np.ndarray:
    """Class the model picks from the fully observed signal (identity rows)."""
    identity = np.eye(batch.dimension)
    return np.array(
        [gs.map_reconstruct(x, identity, model, sigma2).selected_class for x in batch.signals],
        dtype=int,
    )


def jobs(spec: Spec, inputs: Inputs, model: gs.GmmModel, seed: int) -> list[list[Job]]:
    """Per pair, its list of jobs (one per chunk), with labelled batches."""
    labels: dict[int, np.ndarray] = {}
    out = []
    for pair, chunks in zip(spec.pairs, inputs.chunks):
        pair_jobs = []
        for c, batch in enumerate(chunks):
            if batch.labels is None:
                key = id(batch)
                if key not in labels:
                    labels[key] = reference_labels(batch, model, inputs.sigma2)
                batch = gs.SignalBatch(signals=batch.signals, labels=labels[key])
            config = gs.ProtocolConfig(
                step1=pair.step1,
                step2=pair.step2,
                M=M_BUDGET,
                K=K_DETECT,
                b=pair.b,
                P_e=P_E,
                sigma2=inputs.sigma2,
                seed=seed * JOB_SEED_STRIDE + c,
            )
            pair_jobs.append(Job(pair=pair, chunk=c, config=config, batch=batch))
        out.append(pair_jobs)
    return out


def step1_design(job: Job, model: gs.GmmModel) -> np.ndarray:
    """The non-adaptive rows the job's protocol senses first, recomputed
    through the public API with the protocol's seed convention."""
    cfg = job.config
    n = model.dimension
    seed = [DESIGN_TAG, cfg.seed]
    if cfg.step1 == "random":
        return gs.random_orthonormal(cfg.K, n, seed=seed).rows
    if cfg.step1 == "rip_ab":
        return gs.rip_ab(model, cfg.K).rows
    rows = cfg.K if cfg.step1 == "ida" else cfg.b
    empty = gs.AcquisitionState.initial(model, cfg.sigma2, rows)
    return gs.design_classification_block(empty, model, rows, seed=seed, opts=cfg.ascent)


def ida_score(model: gs.GmmModel, sigma2: float, seed: int) -> float:
    """Median separability score of K-row ida designs with empty history.

    The ascent ends in different local optima from different starts (2.10
    to 2.24 at 5 dB), so the median over the starts of the first five jobs
    is reported instead of one start.
    """
    empty = gs.AcquisitionState.initial(model, sigma2, K_DETECT)
    scores = []
    for c in range(IDA_SCORE_STARTS):
        rows = gs.design_classification_block(
            empty, model, K_DETECT, seed=[DESIGN_TAG, seed * JOB_SEED_STRIDE + c]
        )
        scores.append(gs.separability_measure(rows, empty, model))
    return float(np.median(scores))


def two_class_reference_design(model: gs.GmmModel, sigma2: float, k: int) -> np.ndarray:
    """Closed-form k-row detection design for G=2 and an empty history.

    With P_g = Sigma_g + sigma2 I, the generalised eigenvectors W of
    (P_1, P_2) (W^T P_2 W = I, W^T P_1 W = diag(lambda)) split the
    separability measure into sum f(lambda_i), f(lambda) = 1/2 [log(w_1
    lambda + w_2) - w_1 log lambda]. The k eigenvectors with the largest f,
    orthonormalised, are the optimal rows. Numpy only: Cholesky of P_2,
    then eigh of L^-1 P_1 L^-T.
    """
    if model.n_components != 2:
        raise ValueError("the closed form needs exactly two classes")
    n = model.dimension
    p1, p2 = (c.covariance + sigma2 * np.eye(n) for c in model.components)
    w1, w2 = model.priors
    chol = np.linalg.cholesky(p2)
    half = np.linalg.solve(chol, p1)
    whitened = np.linalg.solve(chol, half.T)
    lam, vecs = np.linalg.eigh(0.5 * (whitened + whitened.T))
    general = np.linalg.solve(chol.T, vecs)
    f = 0.5 * (np.log(w1 * lam + w2) - w1 * np.log(lam))
    top = np.argsort(f, kind="stable")[::-1][:k]
    q, _ = np.linalg.qr(general[:, top])
    return q.T
