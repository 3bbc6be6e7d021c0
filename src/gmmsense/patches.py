"""Grayscale image ingestion: binary PGM files and patch extraction."""

from __future__ import annotations

import numpy as np

from .model import SignalBatch

__all__ = ["read_pgm", "patch_extract"]

I_MAX_8BIT = 255.0


def _read_pgm_tokens(data: bytes, count: int, path) -> tuple[list[int], int]:
    """Parse `count` ASCII integer tokens of path's data, skipping whitespace and comments."""
    tokens: list[int] = []
    pos = 0
    current = b""
    while len(tokens) < count:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif ch.isspace():
            if current:
                if not current.isdigit():
                    raise ValueError(f"{path}: PGM header token {current!r} is not a number")
                tokens.append(int(current))
                current = b""
            pos += 1
        else:
            current += ch
            pos += 1
    return tokens, pos


def read_pgm(path) -> np.ndarray:
    """Read an 8-bit binary PGM (P5) image as a float array in [0, 255].

    Pixels are scaled by 255 / maxval, so every image shares the peak
    I_MAX_8BIT that PSNR is computed against. A pixel above maxval is a
    ValueError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    tokens, pos = _read_pgm_tokens(data[2:], 3, path)
    width, height, maxval = tokens
    if maxval <= 0 or maxval > 255:
        raise ValueError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    payload = data[2 + pos : 2 + pos + width * height]
    if len(payload) != width * height:
        raise ValueError(f"{path}: truncated pixel data")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if img.max(initial=0) > maxval:
        raise ValueError(f"{path}: pixel value {img.max()} above maxval {maxval}")
    return img * I_MAX_8BIT / maxval  # exact at maxval 255: v * 255 / 255 == v


def patch_extract(image: np.ndarray, patch: int, overlap: bool = False) -> SignalBatch:
    """Extract square patches as row signals with per-patch DC removed.

    Row-major scan; non-overlapping extraction uses stride = patch and
    drops trailing partial patches, overlap=True uses stride 1. Each patch
    is flattened row-major; its mean goes to dc_offsets and is carried as
    side information (not a measurement).
    """
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2-D")
    if patch < 1 or patch > min(img.shape):
        raise ValueError(
            f"patch size {patch} does not fit image of shape {img.shape}"
        )
    stride = 1 if overlap else patch
    windows = np.lib.stride_tricks.sliding_window_view(img, (patch, patch))
    windows = windows[::stride, ::stride]
    grid = windows.shape[:2]
    flat = windows.reshape(-1, patch * patch)  # a copy, unless it can view img
    if np.shares_memory(flat, img):
        flat = flat.copy()
    dc = flat.mean(axis=1)
    flat -= dc[:, None]
    return SignalBatch(
        signals=flat,
        provenance={
            "kind": "patches",
            "image_shape": tuple(img.shape),
            "patch": patch,
            "overlap": bool(overlap),
            "grid": grid,
            "i_max": I_MAX_8BIT,
        },
        dc_offsets=dc,
    )
