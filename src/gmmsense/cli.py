"""Command-line harness: data generation, training, design, and protocol runs.

Verbs:
  gen-synthetic   two-class synthetic benchmark (model + labeled signals)
  train-gmm       fit a mixture model from PGM images or a labeled CSV
  design          write a non-adaptive sensing matrix for a saved model
  run-protocol    run a two-step protocol from a JSON config, emit a report
  report          aggregate JSON reports into one CSV table

Any rejection (bad input, invalid configuration, a flag the chosen mode
does not read) exits nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from .design import eigen_sensing
from .model import SignalBatch, _check_sigma2, _freeze, sample_signals
from .patches import patch_extract, read_pgm
from .protocol import (
    ExperimentReport,
    ProtocolConfig,
    _check_labels,
    _step1_rows,
    run_two_step,
    sigma2_for_snr_db,
)
from .serialize import (
    _read_json,
    load_model,
    read_matrix,
    save_model,
    write_matrix,
    write_matrix_csv,
)
from .synthetic import synth_model_pair
from .train import supervised_gmm, train_gmm, train_gmm_coadapt


def _mode_flags(args, mode: str, unread, **defaults) -> None:
    """Reject the flags in unread that were given, then fill in defaults.

    Flags that only some modes of a verb read default to None in the
    parser, so a given one shows. Verbs call this before writing anything.
    """
    given = [f for f in unread if getattr(args, f[2:].replace("-", "_")) is not None]
    if given:
        raise ValueError(f"{mode} does not take {', '.join(given)}")
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


@contextlib.contextmanager
def _about(path):
    """Prefix a ValueError raised in the block with path, the file it is about."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_gen_synthetic(args) -> int:
    _check_sigma2(args.sigma2, "--sigma2")
    out = Path(args.out)
    model, bd = synth_model_pair(
        args.dimension, args.bd_low, args.bd_high, seed=args.seed
    )
    batch = sample_signals(model, args.signals, seed=args.seed)
    out.mkdir(parents=True, exist_ok=True)
    save_model(out / "model", model, sigma2=args.sigma2)
    write_matrix(out / "signals.scsm", batch.signals)
    with open(out / "labels.csv", "w") as fh:
        fh.write("\n".join(str(int(l)) for l in batch.labels) + "\n")
    with open(out / "batch.json", "w") as fh:
        json.dump(
            {
                "kind": "synthetic",
                "dimension": args.dimension,
                "bhattacharyya_distance": bd,
                "bd_bucket": [args.bd_low, args.bd_high],
                "n_signals": args.signals,
                "sigma2": args.sigma2,
                "seed": args.seed,
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    print(f"wrote model + {args.signals} signals (BD={bd:.2f}) to {out}")
    return 0


def _ingest_images(image_paths, patch: int, overlap: bool) -> SignalBatch:
    batches = [patch_extract(read_pgm(p), patch, overlap=overlap) for p in image_paths]
    signals = np.vstack([b.signals for b in batches])
    dc = np.concatenate([b.dc_offsets for b in batches])
    _freeze(signals, dc)
    return SignalBatch(
        signals=signals,
        provenance={
            "kind": "patches",
            "images": [str(p) for p in image_paths],
            "patch": patch,
            "overlap": overlap,
            "i_max": 255.0,
        },
        dc_offsets=dc,
    )


def _ingest_csv(path, label_col: int) -> SignalBatch:
    with _about(path):
        data = np.loadtxt(path, delimiter=",", ndmin=2)
        n_cols = data.shape[1]
        if not -n_cols <= label_col < n_cols:
            raise ValueError(
                f"--label-col {label_col} is out of range: the file has {n_cols} columns"
            )
        raw_labels = data[:, label_col]
        signals = np.delete(data, label_col, axis=1)
        values = np.unique(raw_labels)
        remapped = np.searchsorted(values, raw_labels) + 1
        return SignalBatch(
            signals=signals,
            labels=remapped,
            provenance={
                "kind": "csv",
                "path": str(path),
                "label_col": label_col,
                "label_values": values.tolist(),
            },
        )


def _cmd_train_gmm(args) -> int:
    _check_sigma2(args.sigma2, "--sigma2")
    if bool(args.images) == bool(args.csv):
        raise ValueError("provide either --images or --csv (exactly one)")
    if args.images:
        mode, unread = "--images", ("--label-col",)
        if not args.coadapt:
            mode, unread = "--images without --coadapt", (*unread, "--measurements", "--seed")
        _mode_flags(args, mode, unread, patch=8, overlap=False, classes=19, iters=2, seed=0)
        batch = _ingest_images(args.images, args.patch, args.overlap)
        if args.coadapt:
            if args.measurements is None:
                raise ValueError("--coadapt requires --measurements")
            model = train_gmm_coadapt(
                batch,
                args.coadapt,
                args.measurements,
                orientation_bins=args.classes - 1,
                iters=args.iters,
                sigma2=args.sigma2,
                seed=args.seed,
            )
        else:
            model = train_gmm(
                batch,
                orientation_bins=args.classes - 1,
                iters=args.iters,
                sigma2=args.sigma2 if args.sigma2 > 0 else None,
            )
    else:
        _mode_flags(args, "--csv", ("--patch", "--overlap", "--classes", "--iters", "--coadapt",
                                    "--measurements", "--seed"), label_col=0)
        batch = _ingest_csv(args.csv, args.label_col)
        model = supervised_gmm(batch)
    save_model(args.out, model, sigma2=args.sigma2)
    print(
        f"trained model: G={model.n_components}, N={model.dimension}, "
        f"saved to {args.out}"
    )
    return 0


def _cmd_design(args) -> int:
    unread = {"random": ("--component", "--sigma2"), "eigen": ("--sigma2", "--seed"),
              "rip_ab": ("--component", "--sigma2", "--seed"), "ida": ("--component",)}
    _mode_flags(args, f"--method {args.method}", unread[args.method],
                component=1, sigma2=0.0, seed=0)
    _check_sigma2(args.sigma2, "--sigma2")
    model = load_model(args.model)
    if args.method == "eigen":
        rows = eigen_sensing(model.component(args.component), args.measurements).rows
    else:
        rows = _step1_rows(args.method, model, args.measurements, args.sigma2, args.seed)
    write_matrix(args.out, rows)
    if args.csv:
        write_matrix_csv(args.csv, rows)
    print(f"wrote {args.method} design ({rows.shape[0]}x{rows.shape[1]}) to {args.out}")
    return 0


def _cmd_run_protocol(args) -> int:
    if bool(args.signals) == bool(args.images):
        raise ValueError("provide either --signals or --images (exactly one)")
    if args.signals:
        _mode_flags(args, "--signals", ("--patch",))
    else:
        _mode_flags(args, "--images", ("--labels",), patch=8)
    config = ProtocolConfig.from_dict(_read_json(args.config))
    if args.seed is not None:
        config = dataclasses.replace(config, seed=args.seed)
    model = load_model(args.model)
    if args.signals:
        signals = read_matrix(args.signals)
        with _about(args.signals):
            batch = SignalBatch(signals=signals, provenance={"kind": "signals"})
        if args.labels:
            with _about(args.labels):
                labels = np.loadtxt(args.labels, dtype=int, ndmin=1)
                batch = dataclasses.replace(batch, labels=labels)
                _check_labels(batch, model)
    else:
        batch = _ingest_images(args.images, args.patch, overlap=False)
    if args.snr_db is not None:
        config = dataclasses.replace(config, sigma2=sigma2_for_snr_db(batch, args.snr_db))
    report = run_two_step(config, batch, model)
    report.write_json(args.out)
    if args.per_signal:
        report.write_per_signal_csv(args.per_signal)
    acc = "n/a" if report.accuracy is None else f"{report.accuracy:.4f}"
    ps = "n/a" if report.psnr is None else f"{report.psnr:.2f} dB"
    print(
        f"{report.protocol}: n={report.n_signals} mse={report.mse:.6g} "
        f"psnr={ps} accuracy={acc} mean_k={report.mean_k:.2f}"
    )
    return 0


def _cmd_report(args) -> int:
    rows = [ExperimentReport.CSV_HEADER]
    for path in args.inputs:
        d = _read_json(path)
        try:
            rows.append(ExperimentReport.csv_row(d))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed report, bad or missing field {exc}") from exc
    out = "\n".join(rows) + "\n"
    if args.out:
        Path(args.out).write_text(out)
        print(f"wrote {len(args.inputs)} report rows to {args.out}")
    else:
        sys.stdout.write(out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gmmsense",
        description="Statistical compressive sensing of Gaussian mixture models",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synthetic", help="generate a two-class synthetic benchmark")
    p.add_argument("--dimension", type=int, required=True)
    p.add_argument("--bd-low", type=float, default=30.0)
    p.add_argument("--bd-high", type=float, default=46.0)
    p.add_argument("--signals", type=int, default=1000)
    p.add_argument("--sigma2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_synthetic)

    p = sub.add_parser("train-gmm", help="train a mixture model")
    p.add_argument("--images", nargs="+", default=None, help="PGM (P5) images")
    p.add_argument("--csv", default=None, help="headerless labeled CSV")
    p.add_argument("--label-col", type=int, default=None, help="--csv only; default 0")
    p.add_argument("--patch", type=int, default=None, help="--images only; default 8")
    p.add_argument("--overlap", action="store_true", default=None, help="--images only")
    p.add_argument("--classes", type=int, default=None, help="--images only; default 19")
    p.add_argument("--iters", type=int, default=None, help="--images only; default 2")
    p.add_argument("--coadapt", choices=["random", "rip_ab"], default=None, help="--images only")
    p.add_argument("--measurements", type=int, default=None, help="--coadapt only")
    p.add_argument("--sigma2", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None, help="--coadapt only; default 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_train_gmm)

    p = sub.add_parser("design", help="write a sensing matrix for a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=["random", "rip_ab", "eigen", "ida"], required=True)
    p.add_argument("--measurements", type=int, required=True)
    p.add_argument("--component", type=int, default=None, help="eigen only; 1-based, default 1")
    p.add_argument("--sigma2", type=float, default=None, help="ida only; default 0")
    p.add_argument("--seed", type=int, default=None, help="random and ida only; default 0")
    p.add_argument("--out", required=True)
    p.add_argument("--csv", default=None, help="also write CSV here")
    p.set_defaults(func=_cmd_design)

    p = sub.add_parser("run-protocol", help="run a two-step protocol")
    p.add_argument("--config", required=True, help="JSON protocol config")
    p.add_argument("--model", required=True)
    p.add_argument("--signals", default=None, help="SCSM signal matrix")
    p.add_argument("--labels", default=None, help="--signals only; per-signal labels (text)")
    p.add_argument("--images", nargs="+", default=None)
    p.add_argument("--patch", type=int, default=None, help="--images only; default 8")
    p.add_argument("--snr-db", type=float, default=None, help="override sigma2 from SNR")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--per-signal", default=None, help="per-signal CSV path")
    p.set_defaults(func=_cmd_run_protocol)

    p = sub.add_parser("report", help="aggregate report JSONs into a CSV table")
    p.add_argument("--inputs", nargs="+", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
