"""PPM image output."""

import numpy as np
import pytest

from repro.utils.image_io import save_ppm, to_uint8


def load_ppm(path):
    """The pixels of a binary PPM as ``save_ppm`` writes it (3 header lines)."""
    with open(path, "rb") as f:
        magic, size, depth = f.readline(), f.readline(), f.readline()
        width, height = (int(v) for v in size.split())
        pixels = np.frombuffer(f.read(), dtype=np.uint8)
    assert (magic, depth) == (b"P6\n", b"255\n")
    return pixels.reshape(height, width, 3)


def test_to_uint8_clamps(rng):
    img = np.array([[-0.5, 0.0, 0.5], [1.0, 1.5, 0.25]])[..., None].repeat(3, -1)
    out = to_uint8(img)
    assert out.dtype == np.uint8
    assert out.min() == 0 and out.max() == 255


def test_roundtrip(tmp_path, rng):
    img = rng.uniform(0, 1, size=(12, 17, 3))
    path = str(tmp_path / "x.ppm")
    save_ppm(path, img)
    back = load_ppm(path)
    assert back.shape == (12, 17, 3)
    np.testing.assert_allclose(back / 255.0, img, atol=1 / 255.0 + 1e-9)


def test_uint8_passthrough(tmp_path):
    img = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    path = str(tmp_path / "x.ppm")
    save_ppm(path, img)
    np.testing.assert_array_equal(load_ppm(path), img)


def test_rejects_bad_shape(tmp_path):
    with pytest.raises(ValueError):
        save_ppm(str(tmp_path / "x.ppm"), np.zeros((4, 4)))


def test_header_format(tmp_path):
    path = str(tmp_path / "x.ppm")
    save_ppm(path, np.zeros((4, 6, 3)))
    with open(path, "rb") as f:
        assert f.readline() == b"P6\n"
        assert f.readline() == b"6 4\n"
        assert f.readline() == b"255\n"
