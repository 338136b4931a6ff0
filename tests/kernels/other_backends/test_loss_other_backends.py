"""``tests/gaussians/test_loss.py`` on the backends ``auto`` does not select."""

from test_loss import *  # noqa: F401,F403
