"""``tests/gaussians/test_retained_geometry.py`` on the backends ``auto`` does not select."""

from test_retained_geometry import *  # noqa: F401,F403
