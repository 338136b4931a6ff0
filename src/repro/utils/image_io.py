"""Minimal dependency-free image output (binary PPM).

The examples save rendered views to disk; PPM needs no imaging library and
opens everywhere.
"""

from __future__ import annotations

import numpy as np


def to_uint8(image: np.ndarray) -> np.ndarray:
    """Clamp a float image in [0, 1] to uint8."""
    return (np.clip(image, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)


def save_ppm(path: str, image: np.ndarray) -> None:
    """Write an ``(H, W, 3)`` float or uint8 image as binary PPM (P6)."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"expected (H, W, 3) image, got {image.shape}")
    if image.dtype != np.uint8:
        image = to_uint8(image)
    height, width = image.shape[:2]
    with open(path, "wb") as f:
        f.write(f"P6\n{width} {height}\n255\n".encode("ascii"))
        f.write(image.tobytes())
