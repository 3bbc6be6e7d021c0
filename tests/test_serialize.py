import json
import os
import tracemalloc

import numpy as np
import pytest

from helpers import fifo_of, random_model
from gmmsense import cli
from gmmsense.serialize import load_model, read_matrix, save_model, write_matrix


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (3, 5), (0, 4)])
def test_matrix_round_trip_is_bitwise(tmp_path, shape):
    a = np.random.default_rng(1).standard_normal(shape) * 1e3
    path = tmp_path / "m.scsm"
    write_matrix(path, a)
    b = read_matrix(path)
    assert b.shape == shape
    assert b.dtype == np.float64
    assert np.array_equal(b.view(np.uint64), a.view(np.uint64))


def test_header_is_little_endian_u32(tmp_path):
    path = tmp_path / "m.scsm"
    write_matrix(path, np.zeros((2, 3)))
    raw = path.read_bytes()
    assert raw[:4] == b"SCSM"
    assert raw[4:12] == bytes([2, 0, 0, 0, 3, 0, 0, 0])
    assert len(raw) == 12 + 2 * 3 * 8


@pytest.mark.parametrize("sigma2", [0.25, None])
def test_model_round_trip_is_bitwise(tmp_path, sigma2):
    model = random_model(6, 3, seed=2)
    save_model(tmp_path / "model", model, sigma2=sigma2)
    loaded = load_model(tmp_path / "model")
    assert json.loads((tmp_path / "model" / "manifest.json").read_text())["sigma2"] == sigma2
    assert loaded.n_components == model.n_components
    for a, b in zip(model.components, loaded.components):
        assert a.prior == b.prior
        for name in ("mean", "covariance", "basis", "eigenvalues"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def _valid_bytes(tmp_path) -> bytes:
    path = tmp_path / "ok.scsm"
    write_matrix(path, np.arange(6.0).reshape(2, 3))
    return path.read_bytes()


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda raw: b"XXXX" + raw[4:], "bad magic"),
        (lambda raw: raw[:9], "truncated header"),
        (lambda raw: raw[:-1], "truncated payload"),
        (lambda raw: raw + b"\0", "trailing bytes"),
    ],
)
def test_read_rejects_malformed_files(tmp_path, mangle, message):
    path = tmp_path / "bad.scsm"
    path.write_bytes(mangle(_valid_bytes(tmp_path)))
    with pytest.raises(ValueError, match=message):
        read_matrix(path)


@pytest.mark.parametrize(
    "rows, cols, payload",
    [(2**31, 2**31, b""), (65536, 65536, bytes(16))],
    ids=["overflowing", "huge"],
)
def test_read_checks_the_declared_size_before_reading(tmp_path, rows, cols, payload):
    # 2^31 x 2^31 used to raise OverflowError in read; 65536 x 65536 used to
    # ask read for 32 GiB. Both are rejected from the file size alone.
    path = tmp_path / "huge.scsm"
    path.write_bytes(b"SCSM" + np.array([rows, cols], dtype="<u4").tobytes() + payload)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert str(err.value) == (
        f"{path}: truncated payload: the header declares {rows}x{cols} "
        f"({rows * cols * 8} bytes), the file holds {len(payload)}"
    )


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")


@needs_fifo
def test_matrix_reads_through_a_fifo(tmp_path):
    # A pipe has no size to check up front, as with --signals <(cmd).
    a = np.random.default_rng(2).standard_normal((3, 5))
    write_matrix(tmp_path / "m.scsm", a)
    path = fifo_of(tmp_path / "pipe.scsm", (tmp_path / "m.scsm").read_bytes())
    assert np.array_equal(read_matrix(path).view(np.uint64), a.view(np.uint64))


@needs_fifo
@pytest.mark.parametrize(
    "mangle, problem, holds",
    [
        (lambda raw: raw[:-1], "truncated payload", "47"),
        (lambda raw: raw + b"\0", "trailing bytes after payload", "more"),
    ],
    ids=["truncated", "trailing"],
)
def test_fifo_payload_must_match_the_header(tmp_path, mangle, problem, holds):
    path = fifo_of(tmp_path / "pipe.scsm", mangle(_valid_bytes(tmp_path)))
    with pytest.raises(ValueError) as err:
        read_matrix(path)
    assert str(err.value) == (
        f"{path}: {problem}: the header declares 2x3 (48 bytes), the file holds {holds}"
    )


@needs_fifo
@pytest.mark.parametrize(
    "rows, cols, payload",
    [(2**31, 2**31, b""), (65536, 65536, bytes(200_000))],
    ids=["overflowing", "huge"],
)
def test_fifo_huge_header_reads_only_what_arrives(tmp_path, rows, cols, payload):
    raw = b"SCSM" + np.array([rows, cols], dtype="<u4").tobytes() + payload
    path = fifo_of(tmp_path / "pipe.scsm", raw)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as err:
            read_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert str(err.value) == (
        f"{path}: truncated payload: the header declares {rows}x{cols} "
        f"({rows * cols * 8} bytes), the file holds {len(payload)}"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda m: [m], "not a model directory"),
        (lambda m: {**m, "format": "other"}, "not a model directory"),
        (lambda m: {k: v for k, v in m.items() if k != "n_components"}, "n_components"),
        (lambda m: {**m, "n_components": 0}, "n_components"),
        (lambda m: {**m, "n_components": "2"}, "n_components"),
        (lambda m: {**m, "priors": m["priors"][:1]}, "priors"),
        (lambda m: {**m, "priors": m["priors"] + [0.5]}, "priors"),
        (lambda m: {**m, "priors": [None, 0.5]}, "priors"),
        (lambda m: {**m, "dimension": 5}, "dimension must be the components' 3, got 5"),
        (lambda m: {**m, "dimension": "3"}, "dimension must be the components' 3, got '3'"),
        (lambda m: json.dumps(m)[:-1], "manifest.json: not JSON: Expecting ',' delimiter"),
    ],
    ids=["list", "format", "no-count", "zero-count", "string-count", "few-priors",
         "many-priors", "null-prior", "wrong-dimension", "string-dimension", "not-json"],
)
def test_load_rejects_malformed_manifest(tmp_path, edit, message):
    # an edit returning a string is the manifest's text, anything else its value
    model_dir = tmp_path / "model"
    save_model(model_dir, random_model(3, 2, seed=3))
    manifest = model_dir / "manifest.json"
    edited = edit(json.loads(manifest.read_text()))
    manifest.write_text(edited if isinstance(edited, str) else json.dumps(edited))
    with pytest.raises(ValueError, match=message) as err:
        load_model(model_dir)
    assert str(model_dir) in str(err.value)


@pytest.mark.parametrize("verb", ["design", "run-protocol"])
def test_cli_reports_malformed_manifest(tmp_path, capsys, verb):
    model_dir = tmp_path / "model"
    save_model(model_dir, random_model(3, 2, seed=3))
    manifest = model_dir / "manifest.json"
    m = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**m, "priors": m["priors"][:1]}))
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"step1": "rip_ab", "step2": "eigen_mse", "M": 2, "K": 1}))
    args = {
        "design": ["--method", "random", "--measurements", "2"],
        "run-protocol": ["--config", str(config), "--signals", str(tmp_path / "s.scsm")],
    }[verb]
    out = str(tmp_path / "out")
    assert cli.main([verb, "--model", str(model_dir), *args, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(model_dir) in err
