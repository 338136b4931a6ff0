"""``tests/gaussians/test_compute_bins.py`` on the backends ``auto`` does not select."""

from test_compute_bins import *  # noqa: F401,F403
