import numpy as np
import pytest

from helpers import make_image, write_pgm
from gmmsense.patches import patch_extract, read_pgm


def test_pgm_round_trip(tmp_path):
    img = np.rint(make_image(0, size=20)[:, :13])
    path = tmp_path / "a.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert back.shape == (20, 13)
    assert np.array_equal(back, img)


def test_pgm_header_comment_is_skipped(tmp_path):
    pixels = np.arange(6, dtype=np.uint8).reshape(2, 3) * 40
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n3 2\n# max next\n255\n" + pixels.tobytes())
    assert np.array_equal(read_pgm(path), pixels.astype(float))


@pytest.mark.parametrize(
    "raw, message",
    [
        (b"P5\n3 2\n255\n" + bytes(5), "truncated pixel data"),
        (b"P5\n3 2\n65535\n" + bytes(12), "only 8-bit"),
        (b"P2\n3 2\n255\n0 0 0 0 0 0\n", "not a binary PGM"),
        (b"P5\n3 2\n100\n" + bytes([0, 0, 200, 0, 0, 0]), "pixel value 200 above maxval 100"),
        (b"P5\n3 x\n255\n" + bytes(6), "PGM header token b'x' is not a number"),
        (b"P5\n3 2", "truncated PGM header"),
    ],
    ids=["truncated", "16-bit", "ascii", "above-maxval", "non-numeric-token", "truncated-header"],
)
def test_pgm_rejects_malformed_files(tmp_path, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError) as err:
        read_pgm(path)
    assert str(err.value).startswith(f"{path}: ") and message in str(err.value)


def test_pgm_below_8_bit_is_scaled_to_the_8_bit_peak(tmp_path):
    # PSNR is computed against the peak 255, so a 4-bit image must span [0, 255]
    pixels = np.array([[0, 1, 5], [10, 14, 15]], dtype=np.uint8)
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n3 2\n15\n" + pixels.tobytes())
    assert np.array_equal(read_pgm(path), pixels * 17.0)


@pytest.mark.parametrize("overlap, grid", [(False, (3, 2)), (True, (8, 5))])
def test_patch_grid_and_dc_offsets_rebuild_each_patch(overlap, grid):
    # a 10 x 7 image with 3 x 3 patches: without overlap the trailing row
    # and column of pixels do not fill a patch and are dropped
    img = make_image(1, size=10)[:, :7]
    batch = patch_extract(img, 3, overlap=overlap)
    assert batch.provenance["grid"] == grid
    assert batch.n_signals == grid[0] * grid[1]
    assert batch.dimension == 9
    assert np.allclose(batch.signals.mean(axis=1), 0.0, atol=1e-12)
    stride = 1 if overlap else 3
    rebuilt = batch.signals + batch.dc_offsets[:, None]
    k = 0
    for i in range(grid[0]):
        for j in range(grid[1]):
            patch = img[i * stride : i * stride + 3, j * stride : j * stride + 3]
            assert np.allclose(rebuilt[k], patch.ravel(), rtol=0, atol=1e-12)
            k += 1


@pytest.mark.parametrize(
    "patch, overlap", [(3, False), (3, True), (1, False)], ids=["tiled", "overlap", "pixel"]
)
def test_dc_is_removed_without_touching_the_callers_image(patch, overlap):
    # For patch = 1 the patch rows can be a view of a float image, which
    # must be copied before the DC is subtracted in place.
    img = np.ascontiguousarray(make_image(1, size=10)[:, :7])
    before = img.copy()
    batch = patch_extract(img, patch, overlap=overlap)
    assert np.array_equal(img, before)
    stride = 1 if overlap else patch
    rows, cols = batch.provenance["grid"]
    flat = np.array(
        [
            img[i * stride : i * stride + patch, j * stride : j * stride + patch].ravel()
            for i in range(rows)
            for j in range(cols)
        ]
    )
    dc = flat.mean(axis=1)
    assert np.array_equal(batch.dc_offsets, dc)
    assert np.array_equal(batch.signals, flat - dc[:, None])
