"""``tests/gaussians/test_raster_parity.py`` on the backends ``auto`` does not select."""

from test_raster_parity import *  # noqa: F401,F403
