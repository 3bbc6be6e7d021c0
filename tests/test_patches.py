import numpy as np
import pytest

from helpers import make_image
from gmmsense.patches import patch_extract, read_pgm, write_pgm


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
    ],
    ids=["truncated", "16-bit", "ascii"],
)
def test_pgm_rejects_malformed_files(tmp_path, raw, message):
    path = tmp_path / "bad.pgm"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match=message):
        read_pgm(path)


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
