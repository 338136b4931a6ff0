"""``tests/serving/test_forward_parity.py`` on the backends ``auto`` does not select."""

from test_forward_parity import *  # noqa: F401,F403
