"""The oracle suites, once more per backend that ``auto`` does not select.

The suites that hold the compositing kernels to their oracles — the legacy
per-tile loop, finite differences, cross-engine equivalence, serving
parity — name no backend, so they run on whatever ``auto`` resolves to:
the compiled ``native`` kernels wherever a C compiler exists.  So that
this does not take the NumPy slab kernels (the reference every fallback
lands on) out of Tier-1, each module here re-exports one of those suites
(``from test_x import *``: same test functions, own node ids, own
module-scoped fixtures) and :func:`kernel_backend` pins, through
``REPRO_KERNEL_BACKEND``, every *other* available backend in turn.  A test
that pins ``RasterSettings(kernel_backend=...)`` itself keeps its pin.

So a plain Tier-1 run on a host with a compiler runs these suites on
``native`` (first collection) and on ``numpy`` (here), and a run under
``REPRO_KERNEL_BACKEND=numpy`` the other way round.  Without a compiler
there is no other backend and the directory collects nothing.
"""

import pytest

from repro.kernels import ENV_VAR, backend_status, resolve_backend_name

OTHER_BACKENDS = [
    row["name"]
    for row in backend_status()
    if row["available"] and row["name"] != resolve_backend_name(None)
]


def pytest_ignore_collect():
    return not OTHER_BACKENDS or None


@pytest.fixture(scope="module", autouse=True, params=OTHER_BACKENDS)
def kernel_backend(request):
    """Module-scoped and autouse, so the suite's own module-scoped fixtures
    are built under the pin too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(ENV_VAR, request.param)
        yield request.param
