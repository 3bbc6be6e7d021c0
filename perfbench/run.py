#!/usr/bin/env python3
"""Benchmark of the gmmsense protocols, end to end and per layer.

    python3 perfbench/run.py --workload synth-batch --seed 1 --seconds 25 --trace 0

Run from the repository root. The library is imported from `src/`; without
it the command exits with an error and prints no result. With `--trace 0`
the run times set-up, training and the protocol jobs untraced and prints the
end-to-end metrics; with `--trace 1` it runs one untraced and one traced
pass over the same work and prints the per-layer metrics. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
# One BLAS thread: the workloads are small dense kernels where threading adds
# noise and no speed, and load comes from this one process. numpy is imported
# inside functions, after pin_blas_threads has set the thread count.
BLAS_THREADS = 1
# Timings are CPU time of this process. With BLAS on one thread the process
# computes on one core at a time, so on an idle machine CPU time and wall
# time agree; on a shared host CPU time leaves out the time the process
# waited for a core, which measures the neighbours, not the program.
CLOCK = time.process_time

END_TO_END = (
    ("signals_per_s", "1/s"),
    ("train_signals_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "fraction"),
    ("recon_snr_db", "dB"),
    ("mean_k", "measurements"),
    ("ida_score", "nats"),
    ("success_ratio", "fraction"),
)

PAIR_NAMES = (
    "random-eigen_mse",
    "rip_ab-eigen_mse",
    "ida-eigen_mse",
    "ida-mi_adaptive",
    "aida_sht-mi_adaptive-b1",
    "aida_sht-mi_adaptive-b4",
)


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import gmmsense from this checkout's src/, never from elsewhere."""
    if not (SRC / "gmmsense" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'gmmsense'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import gmmsense

    if Path(gmmsense.__file__).resolve().parent != SRC / "gmmsense":
        raise SystemExit(f"error: imported gmmsense from {gmmsense.__file__}, not {SRC}")
    return gmmsense


def per_layer_units() -> dict[str, str]:
    from tracing import TARGETS

    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for pair in PAIR_NAMES:
        units[f"protocol.{pair}.s_per_signal"] = "s"
    units.update(
        {
            "adaptive.ida_score_ref": "nats",
            "adaptive.ida_score_gap": "nats",
            "inference.sht_decided_ratio": "fraction",
            "inference.sht_budget_hits": "count",
            "train.live_classes": "count",
            "linalg.sym_floored_eigh.mean_dim": "rows",
            "trace.overhead_ratio": "ratio",
            "trace.spans": "count",
        }
    )
    return units


# -- environment --------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout's .git, read from files; "unknown" without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "seed": seed,
    }


# -- checks -------------------------------------------------------------------


def signal_failures(job, report, n_classes: int) -> int:
    """Signals of one report that break an output contract.

    Classes must lie in 1..G, k_used in [1, M] (a multiple of b for aida)
    and squared errors must be finite. A report of the wrong size fails
    every signal.
    """
    import numpy as np

    n = job.batch.n_signals
    classes = np.asarray(report.classes)
    k = np.asarray(report.k_used)
    errors = np.asarray(report.squared_errors)
    if report.n_signals != n or not (classes.shape == k.shape == errors.shape == (n,)):
        return n
    bad = (classes < 1) | (classes > n_classes) | (k < 1) | (k > job.config.M)
    if job.pair.step1 == "aida_sht":
        bad |= k % job.pair.b != 0
    bad |= ~np.isfinite(errors)
    return int(bad.sum())


def same_inputs(a, b) -> bool:
    import numpy as np

    if a.sigma2 != b.sigma2 or not np.array_equal(a.train.signals, b.train.signals):
        return False
    if (a.model is None) != (b.model is None):
        return False
    if a.model is not None and not same_model(a.model, b.model):
        return False
    return all(
        np.array_equal(x.signals, y.signals)
        for cx, cy in zip(a.chunks, b.chunks)
        for x, y in zip(cx, cy)
    )


def design_failures(jobs, model, gs, wl) -> dict[str, bool]:
    """Per pair, whether its step-1 design fails SensingMatrix's check."""
    bad = {}
    for pair_jobs in jobs:
        job = pair_jobs[0]
        try:
            gs.SensingMatrix(rows=wl.step1_design(job, model))
            bad[job.pair.name] = False
        except ValueError:
            traceback.print_exc()
            bad[job.pair.name] = True
    return bad


# -- running jobs -------------------------------------------------------------


def run_job(gs, job, model):
    """Run one protocol call; an exception is returned, not raised."""
    try:
        return gs.run_two_step(job.config, job.batch, model)
    except Exception as exc:  # a failing call counts its signals as failed
        traceback.print_exc()
        return exc


def warm_up(gs, jobs, model) -> None:
    for pair_jobs in jobs:
        job = pair_jobs[0]
        small = gs.SignalBatch(signals=job.batch.signals[:2], labels=job.batch.labels[:2])
        run_job(gs, dataclasses.replace(job, batch=small), model)


def round_jobs(jobs) -> list[tuple[int, int]]:
    """(pair, chunk) key of every job, each once, in the order of rounds.

    Round r runs chunk r mod (chunks of the pair) of every pair.
    """
    rounds = max(len(pair_jobs) for pair_jobs in jobs)
    keys = ((p, r % len(jobs[p])) for r in range(rounds) for p in range(len(jobs)))
    return list(dict.fromkeys(keys))


def quality(results, dimension: int) -> dict[str, float]:
    import numpy as np

    n = sum(job.batch.n_signals for job, _ in results)
    if n == 0:  # every call failed; the result reports correct=false
        return {"accuracy": 0.0, "recon_snr_db": 0.0, "mean_k": 0.0}
    correct = sum(int(np.sum(r.classes == job.batch.labels)) for job, r in results)
    energy = sum(float(np.sum(job.batch.signals**2)) for job, _ in results)
    sq_errors = sum(float(np.sum(r.squared_errors)) for _, r in results)
    k_total = sum(int(np.sum(r.k_used)) for _, r in results)
    return {
        "accuracy": correct / n,
        "recon_snr_db": float(10.0 * np.log10((energy / dimension) / sq_errors)),
        "mean_k": k_total / n,
    }


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def timed(fn, *args):
    """fn(*args) and the CPU time it took."""
    start = CLOCK()
    out = fn(*args)
    return out, CLOCK() - start


def same_model(a, b) -> bool:
    import numpy as np

    return np.array_equal(a.priors, b.priors) and np.array_equal(
        a.covariance_stack, b.covariance_stack
    )


def fast_decile(times: list[float]) -> float:
    """10th percentile of repeated CPU times (inclusive method): outside
    load only ever adds time."""
    return statistics.quantiles(times, n=10, method="inclusive")[0] if len(times) > 1 else times[0]


class SpeedProbe:
    """Measures how fast the machine runs, with a fixed numpy kernel.

    On a host shared with other workloads the same code runs slower while
    neighbours compete for the core's caches and memory bandwidth, and its
    CPU time grows with it, by up to 55% from one 10-second window to the
    next. A kernel of small numpy calls, like the protocols' own, slows
    down with it: over those windows the ratio of a protocol call's mean
    time to this kernel's mean time stayed within 6%. After each timed call
    of t seconds the probe runs its kernel until it has spent SHARE * t (at
    least once), so its samples cover the run's timeline in proportion to
    the timed work. scale() turns a CPU time of the run into seconds on a
    machine where the kernel takes REFERENCE_S on average.
    """

    SHARE = 0.05
    REFERENCE_S = 1e-3

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        a = rng.standard_normal((64, 64))
        self._matrix = a @ a.T + 64.0 * np.eye(64)
        self._vector = rng.standard_normal(64)
        self.samples: list[float] = []

    def _kernel(self) -> None:
        import numpy as np

        for _ in range(20):
            x = np.linalg.solve(self._matrix, self._vector)
            float((self._matrix @ x) @ self._vector)

    def follow(self, seconds: float) -> None:
        spent = 0.0
        while spent == 0.0 or spent < self.SHARE * seconds:
            _, t = timed(self._kernel)
            self.samples.append(t)
            spent += t

    def mean(self) -> float:
        return statistics.fmean(self.samples)

    def scale(self) -> float:
        return self.REFERENCE_S / self.mean()


def run_checked(gs, jobs, model, key, first, times, bad_design, tally, probe) -> None:
    """Run the job of a (pair, chunk) key and check its report.

    A job's first report is checked signal by signal and kept; a repeat
    must give the same results. Call times of returned reports go to times.
    """
    p, c = key
    job = jobs[p][c]
    report, elapsed = timed(run_job, gs, job, model)
    probe.follow(elapsed)
    n = job.batch.n_signals
    if isinstance(report, Exception):
        tally.add(n, n)
        first.setdefault(key, report)
        return
    times.setdefault(key, []).append(elapsed)
    if key not in first:
        if bad_design[job.pair.name]:
            failed = n
        else:
            failed = signal_failures(job, report, model.n_components)
        first[key] = report
    else:
        previous = first[key]
        same = not isinstance(previous, Exception) and previous.same_results(report)
        failed = 0 if same else n
    tally.add(n, failed)


def run_measured(args, gs, wl) -> tuple[dict, Tally, bool, list[str]]:
    """Untraced run: end-to-end metrics.

    Protocol calls fill the window, cycling through every job of the
    evaluation set in round order; the first pass gives the quality metrics.
    Set-up and training are repeated between calls whenever their
    accumulated time falls below their share of the elapsed window, so their
    samples spread across the whole run rather than coming in one burst.
    Timings are scaled by the speed probe: a pass over the evaluation set
    takes the sum of its jobs' mean call times, training the mean of its
    repeats and set-up the median of its repeats. Where the workload leaves
    training unscaled, training takes the fast decile of its repeats. The first set-up and
    training, before the window, count only when nothing repeats.
    """
    spec = wl.SPECS[args.workload]
    inputs, t = timed(wl.setup, spec, args.seed)
    setup_times = [t]
    trained, t = timed(wl.train, spec, inputs)
    train_times = [t]
    deterministic = True
    model = wl.protocol_model(inputs, trained)
    jobs = wl.jobs(spec, inputs, model, args.seed)
    tally = Tally()
    bad_design = design_failures(jobs, model, gs, wl)
    ida_score = wl.ida_score(model, inputs.sigma2, args.seed)
    warm_up(gs, jobs, model)

    first: dict[tuple[int, int], object] = {}
    times: dict[tuple[int, int], list[float]] = {}
    keys = round_jobs(jobs)
    probe = SpeedProbe()
    start, cpu_start = time.perf_counter(), CLOCK()
    r = 0
    while True:
        elapsed = time.perf_counter() - start
        if r >= len(keys) and elapsed >= args.seconds:
            break
        if sum(train_times[1:]) < spec.train_share * elapsed:
            again, t = timed(wl.train, spec, inputs)
            train_times.append(t)
            probe.follow(t)
            deterministic &= same_model(trained, again)
        elif sum(setup_times[1:]) < spec.setup_share * elapsed:
            again, t = timed(wl.setup, spec, args.seed)
            setup_times.append(t)
            probe.follow(t)
            deterministic &= same_inputs(inputs, again)
        else:
            key = keys[r % len(keys)]
            run_checked(gs, jobs, model, key, first, times, bad_design, tally, probe)
            r += 1

    results = [
        (jobs[p][c], report)
        for (p, c), report in sorted(first.items())
        if not isinstance(report, Exception)
    ]
    done = [key for key in keys if key in times]
    scale = probe.scale()
    pass_s = sum(statistics.fmean(times[key]) for key in done)
    pass_signals = sum(jobs[p][c].batch.n_signals for p, c in done)
    repeats = train_times[1:] or train_times
    if spec.scale_training:
        train_s = statistics.fmean(repeats) * scale
    else:
        train_s = fast_decile(repeats)
    metrics = {
        "signals_per_s": pass_signals / (pass_s * scale) if done else 0.0,
        "train_signals_per_s": inputs.train.n_signals / train_s,
        "setup_s": statistics.median(setup_times[1:] or setup_times) * scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **quality(results, model.dimension),
        "ida_score": ida_score,
        "success_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    units = dict(END_TO_END)
    info = [
        f"samples: protocol calls {r} (evaluation pass {len(keys)}, "
        f"{min((len(times.get(key, ())) for key in keys), default=0)}+ calls per job), "
        f"trainings {len(train_times)}, set-ups {len(setup_times)}",
        f"window_s {time.perf_counter() - start:.3f} (cpu {CLOCK() - cpu_start:.3f})",
        f"probe: {len(probe.samples)} samples, mean {probe.mean() * 1e3:.4f} ms, scale {scale:.4f}",
        f"uncorrected: signals_per_s {pass_signals / pass_s if done else 0.0:.6g}",
        "train_s " + " ".join(f"{t:.4f}" for t in train_times),
    ]
    for p, pair_jobs in enumerate(jobs):
        pair_s = sum(statistics.fmean(times[(p, c)]) for c in range(len(pair_jobs)) if (p, c) in times)
        info.append(f"pass_s {pair_jobs[0].pair.name} {pair_s:.4f}")
    out = {name: {"value": metrics[name], "unit": units[name]} for name, _ in END_TO_END}
    return out, tally, deterministic, info


def run_traced(args, gs, wl) -> tuple[dict, Tally, bool, list[str]]:
    import numpy as np
    from tracing import Tracer

    spec = wl.SPECS[args.workload]
    tally = Tally()

    # Untraced pass: one set-up, one training, every job once.
    start = CLOCK()
    inputs = wl.setup(spec, args.seed)
    trained = wl.train(spec, inputs)
    t_prep = CLOCK() - start
    model = wl.protocol_model(inputs, trained)
    jobs = wl.jobs(spec, inputs, model, args.seed)
    order = round_jobs(jobs)
    warm_up(gs, jobs, model)
    untraced = {}
    pair_time = {name: 0.0 for name in PAIR_NAMES}
    pair_signals = {name: 0 for name in PAIR_NAMES}
    t_eval = 0.0
    for p, c in order:
        job = jobs[p][c]
        untraced[(p, c)], elapsed = timed(run_job, gs, job, model)
        t_eval += elapsed
        pair_time[job.pair.name] += elapsed
        pair_signals[job.pair.name] += job.batch.n_signals

    # Traced pass over the same work.
    state = {"dims": 0, "decided": 0, "budget_hits": 0, "designs": []}
    tracer = Tracer()

    def eigh_dims(a, kw, _result):
        state["dims"] += np.shape(a[0] if a else kw["a"])[-1]

    def sht_outcome(_a, _kw, outcome):
        state["budget_hits" if outcome.decided_class is None else "decided"] += 1

    def design_rows(_a, _kw, rows):
        state["designs"].append((tracer.current_call, rows))

    tracer.observers.update(
        {
            "linalg.sym_floored_eigh": eigh_dims,
            "inference.sht_run": sht_outcome,
            "adaptive.design_classification_block": design_rows,
            "adaptive.design_reconstruction_block": design_rows,
        }
    )
    start = CLOCK()
    with tracer:
        traced_inputs = wl.setup(spec, args.seed)
        traced_trained = wl.train(spec, traced_inputs)
    t_prep_traced = CLOCK() - start
    traced_model = wl.protocol_model(traced_inputs, traced_trained)
    deterministic = same_inputs(inputs, traced_inputs) and same_model(trained, traced_trained)
    call_job = {}
    t_eval_traced = 0.0
    traced = {}
    with tracer:
        for p, c in order:
            traced[(p, c)], elapsed = timed(run_job, gs, jobs[p][c], traced_model)
            t_eval_traced += elapsed
            call_job[tracer.protocol_calls] = (p, c)

    bad_calls = set()
    for call_id, rows in state["designs"]:
        try:
            gs.SensingMatrix(rows=rows)
        except ValueError:
            bad_calls.add(call_job.get(call_id))
    for key in order:
        job = jobs[key[0]][key[1]]
        n = job.batch.n_signals
        a, b = untraced[key], traced[key]
        if isinstance(a, Exception) or isinstance(b, Exception):
            failed = n
        elif key in bad_calls or not a.same_results(b):
            failed = n
        else:
            failed = signal_failures(job, b, model.n_components)
        tally.add(n, failed)

    ida_score = wl.ida_score(model, inputs.sigma2, args.seed)
    if model.n_components == 2:
        empty = gs.AcquisitionState.initial(model, inputs.sigma2, wl.K_DETECT)
        ref_rows = wl.two_class_reference_design(model, inputs.sigma2, wl.K_DETECT)
        ida_ref = gs.separability_measure(ref_rows, empty, model)
        ida_gap = ida_score - ida_ref
    else:
        ida_ref = ida_gap = 0.0  # the closed form exists for two classes only

    values: dict[str, float] = {}
    for name in tracer.names:
        values[f"{name}.calls"] = tracer.calls[name]
        values[f"{name}.self_s"] = tracer.self_s[name]
    for pair in PAIR_NAMES:
        n = pair_signals[pair]
        values[f"protocol.{pair}.s_per_signal"] = pair_time[pair] / n if n else 0.0
    sht_calls = tracer.calls["inference.sht_run"]
    eigh_calls = tracer.calls["linalg.sym_floored_eigh"]
    values.update(
        {
            "adaptive.ida_score_ref": ida_ref,
            "adaptive.ida_score_gap": ida_gap,
            "inference.sht_decided_ratio": state["decided"] / sht_calls if sht_calls else 0.0,
            "inference.sht_budget_hits": state["budget_hits"],
            "train.live_classes": int(np.count_nonzero(trained.priors)),
            "linalg.sym_floored_eigh.mean_dim": state["dims"] / eigh_calls if eigh_calls else 0.0,
            "trace.overhead_ratio": (t_prep_traced + t_eval_traced) / (t_prep + t_eval),
            "trace.spans": len(tracer.spans),
        }
    )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{args.workload}.jsonl.gz"
    tracer.write_spans(spans_path, {"workload": args.workload, "env": environment(args.seed)})
    units = per_layer_units()
    info = [f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}"]
    out = {name: {"value": values[name], "unit": units[name]} for name in units}
    return out, tally, deterministic, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("synth-batch", "synth-aida", "patches-g10")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    pin_blas_threads()
    gs = import_library()
    import workloads as wl

    env = environment(args.seed)
    print("env " + json.dumps(env), flush=True)
    runner = run_traced if args.trace else run_measured
    metrics, tally, deterministic, info = runner(args, gs, wl)
    for line in info:
        print(line)
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": tally.failed == 0 and deterministic,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
