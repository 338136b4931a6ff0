"""``tests/gaussians/test_slab_kernels.py`` on the backends ``auto`` does not select."""

from test_slab_kernels import *  # noqa: F401,F403
