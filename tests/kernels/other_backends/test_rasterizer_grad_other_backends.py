"""``tests/gaussians/test_rasterizer_grad.py`` on the backends ``auto`` does not select."""

from test_rasterizer_grad import *  # noqa: F401,F403
