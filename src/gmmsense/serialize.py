"""Matrix and model persistence.

Matrices use a little-endian binary format: magic "SCSM", u32 row count,
u32 column count, then the float64 payload in row-major order. Models
serialize to a directory of such matrices plus a JSON manifest carrying
the priors, dimensions, and the noise level used in training.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .model import GaussianComponent, GmmModel

__all__ = [
    "write_matrix",
    "read_matrix",
    "write_matrix_csv",
    "save_model",
    "load_model",
]

_MAGIC = b"SCSM"
_MANIFEST_NAME = "manifest.json"


def write_matrix(path, matrix: np.ndarray) -> None:
    """Write a 2-D float64 matrix in the SCSM binary format."""
    a = np.ascontiguousarray(np.atleast_2d(np.asarray(matrix, dtype="<f8")))
    if a.ndim != 2:
        raise ValueError("only 2-D matrices are serializable")
    rows, cols = a.shape
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(np.array([rows, cols], dtype="<u4").tobytes())
        fh.write(a.tobytes())


def read_matrix(path) -> np.ndarray:
    """Read a matrix written by write_matrix."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header")
        rows, cols = np.frombuffer(header, dtype="<u4")
        payload = fh.read(int(rows) * int(cols) * 8)
        if len(payload) != int(rows) * int(cols) * 8:
            raise ValueError(f"{path}: truncated payload")
        extra = fh.read(1)
        if extra:
            raise ValueError(f"{path}: trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f8").reshape(int(rows), int(cols)).copy()


def write_matrix_csv(path, matrix: np.ndarray) -> None:
    np.savetxt(path, np.atleast_2d(matrix), delimiter=",", fmt="%.17g")


def save_model(directory, model: GmmModel, sigma2: float | None = None) -> None:
    """Write a model as per-component SCSM matrices plus a JSON manifest."""
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    for g, comp in enumerate(model.components, start=1):
        write_matrix(d / f"component{g}_mean.scsm", comp.mean[None, :])
        write_matrix(d / f"component{g}_covariance.scsm", comp.covariance)
        write_matrix(d / f"component{g}_basis.scsm", comp.basis)
        write_matrix(d / f"component{g}_eigenvalues.scsm", comp.eigenvalues[None, :])
    manifest = {
        "format": "gmmsense-model",
        "version": 1,
        "dimension": model.dimension,
        "n_components": model.n_components,
        "priors": [c.prior for c in model.components],
        "sigma2": sigma2,
    }
    with open(d / _MANIFEST_NAME, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def load_model(directory) -> tuple[GmmModel, float | None]:
    """Load a model directory; returns (model, training sigma2 or None)."""
    d = Path(directory)
    with open(d / _MANIFEST_NAME) as fh:
        manifest = json.load(fh)
    if not isinstance(manifest, dict) or manifest.get("format") != "gmmsense-model":
        raise ValueError(f"{d}: not a model directory")
    g_total = manifest.get("n_components")
    if type(g_total) is not int or g_total < 1:
        raise ValueError(f"{d}: n_components must be an integer >= 1, got {g_total!r}")
    priors = manifest.get("priors")
    if (
        not isinstance(priors, list)
        or len(priors) != g_total
        or not all(type(p) in (int, float) for p in priors)
    ):
        raise ValueError(f"{d}: manifest needs {g_total} numeric priors, got {priors!r}")
    sigma2 = manifest.get("sigma2")
    if sigma2 is not None and type(sigma2) not in (int, float):
        raise ValueError(f"{d}: sigma2 must be a number or null, got {sigma2!r}")
    comps = []
    for g in range(1, g_total + 1):
        comps.append(
            GaussianComponent(
                mean=read_matrix(d / f"component{g}_mean.scsm")[0],
                covariance=read_matrix(d / f"component{g}_covariance.scsm"),
                basis=read_matrix(d / f"component{g}_basis.scsm"),
                eigenvalues=read_matrix(d / f"component{g}_eigenvalues.scsm")[0],
                prior=float(priors[g - 1]),
            )
        )
    return GmmModel(components=tuple(comps)), (None if sigma2 is None else float(sigma2))
