"""``tests/core/test_equivalence.py`` on the backends ``auto`` does not select."""

from test_equivalence import *  # noqa: F401,F403
