"""Matrix and model persistence.

Matrices use a little-endian binary format: magic "SCSM", u32 row count,
u32 column count, then the float64 payload in row-major order. Models
serialize to a directory of such matrices plus a JSON manifest carrying
the priors, dimensions, and the noise level used in training.
"""

from __future__ import annotations

import json
import os
import stat
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
# Bytes read at a time from a pipe or other non-seekable input.
_READ_PIECE = 1 << 16


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
    """Read a matrix written by write_matrix.

    The payload the header declares must be exactly the rest of the input.
    For a regular file this is checked against the file size before
    anything is read. A pipe or FIFO is read in bounded pieces until the
    declared size is passed or the input ends. Either way a corrupt
    header cannot ask for an absurd allocation.
    """
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header")
        rows, cols = (int(v) for v in np.frombuffer(header, dtype="<u4"))
        declared = rows * cols * 8
        st = os.fstat(fh.fileno())
        if stat.S_ISREG(st.st_mode):
            left = st.st_size - fh.tell()
            holds = str(left)
            payload = fh.read(declared) if left == declared else b""
        else:
            payload = _read_at_most(fh, declared + 1)
            left = len(payload)
            holds = str(left) if left < declared else "more"
        if left != declared:
            problem = "truncated payload" if declared > left else "trailing bytes after payload"
            raise ValueError(
                f"{path}: {problem}: the header declares {rows}x{cols} "
                f"({declared} bytes), the file holds {holds}"
            )
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def _read_at_most(fh, n: int) -> bytes:
    """Up to n bytes of fh, read _READ_PIECE at a time so that memory
    grows with what the input holds, not with n."""
    pieces, got = [], 0
    while got < n:
        piece = fh.read(min(n - got, _READ_PIECE))
        if not piece:
            break
        pieces.append(piece)
        got += len(piece)
    return b"".join(pieces)


def _read_json(path):
    """The JSON value in a file; a file that is not JSON is a ValueError naming it."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ValueError(f"{path}: not JSON: {exc}") from exc


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


def load_model(directory) -> GmmModel:
    """Load a model directory written by save_model.

    The manifest's dimension must be the loaded components'. Its training
    sigma2 is recorded for the reader and not read.
    """
    d = Path(directory)
    manifest = _read_json(d / _MANIFEST_NAME)
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
    dimension, n = manifest.get("dimension"), comps[0].dimension
    if type(dimension) is not int or dimension != n:
        raise ValueError(f"{d}: manifest dimension must be the components' {n}, got {dimension!r}")
    return GmmModel(components=tuple(comps))
