"""``tests/gaussians/test_frustum_accept.py`` on the backends ``auto`` does not select."""

from test_frustum_accept import *  # noqa: F401,F403
