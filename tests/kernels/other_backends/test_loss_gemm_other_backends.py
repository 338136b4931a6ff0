"""``tests/gaussians/test_loss_gemm.py`` on the backends ``auto`` does not select."""

from test_loss_gemm import *  # noqa: F401,F403
