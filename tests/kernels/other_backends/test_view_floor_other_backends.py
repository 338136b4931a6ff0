"""``tests/engines/test_view_floor.py`` on the backends ``auto`` does not select."""

from test_view_floor import *  # noqa: F401,F403
