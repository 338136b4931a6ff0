"""The photometric loss in C against the NumPy op and the ``convolve1d`` oracle.

``photometric_loss`` is a kernel op.  ``native`` runs it as one C call over
the target's kept moments, summing every window in registers; the NumPy op
filters with banded matrix products, whose zero-padded rows BLAS sums in
its own order.  So the two agree to rounding — the value within 1e-14, the
gradient within 1e-13 of its largest entry — and two ``native`` calls are
``array_equal``, L1 alone (``ssim_lambda == 0``) included.  ``native``
refuses grayscale and float32 images and strided operands, which the
reference computes when it is named; it keeps no state between calls, so calls from several threads at once agree with
serial ones; running out of memory is a ``MemoryError``.
"""

import os
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from repro.gaussians import loss
from repro.gaussians.loss import TargetMoments
from repro.kernels import OpDispatch, get_backend
from repro.kernels import native_backend
from test_loss_gemm import image_pair

pytestmark = pytest.mark.skipif(
    not get_backend("native").available(), reason="no C compiler here"
)

VALUE_TOL = 1e-14
GRAD_REL = 1e-13

#: ``(H, W)``: the two ``bench_e2e`` training sizes, an image smaller than
#: the 11-tap window both ways, a single row, and a row wider than 4096.
SIZES = [(24, 32), (30, 40), (7, 9), (1, 40), (2, 4100)]


def on(backend, x, y, lam=0.2, moments=None):
    """``(value, grad, backend that ran it)``."""
    ops = OpDispatch(backend)
    value, grad = loss.photometric_loss(x, y, lam, moments, kernel_backend=ops)
    return value, grad, ops.active


def assert_close(got, want):
    (value, grad), (want_value, want_grad) = got, want
    assert abs(value - want_value) <= VALUE_TOL
    assert grad.shape == want_grad.shape
    assert np.abs(grad - want_grad).max() <= GRAD_REL * np.abs(want_grad).max()


def oracle_loss(ssim_oracle, x, y, lam):
    l1, l1_grad = loss.l1_loss(x, y)
    s_val, s_grad = ssim_oracle(x, y)
    return (1 - lam) * l1 + lam * (1 - s_val), (1 - lam) * l1_grad - lam * s_grad


@pytest.mark.parametrize("kept", [True, False], ids=["kept", "fresh"])
@pytest.mark.parametrize("lam", [0.2, 1.0, 0.0])
@pytest.mark.parametrize("size", SIZES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_matches_the_numpy_op_and_the_scipy_oracle(ssim_oracle, size, lam, kept):
    x, y = image_pair(size, seed=sum(size))
    moments = TargetMoments.of(y) if kept else None
    value, grad, ran = on("native", x, y, lam, moments)
    assert ran == "native"
    assert grad.shape == x.shape and grad.flags.c_contiguous
    want_value, want_grad, ran = on("numpy", x, y, lam, moments)
    assert ran == "numpy"
    assert_close((value, grad), (want_value, want_grad))
    assert_close((value, grad), oracle_loss(ssim_oracle, x, y, lam))


def test_two_calls_are_bit_identical():
    x, y = image_pair((30, 40), seed=3)
    moments = TargetMoments.of(y)
    first = on("native", x, y, 0.2, moments)
    again = on("native", x, y, 0.2, moments)
    fresh = on("native", x, y, 0.2)  # its own moments: the same bits
    for other in (again, fresh):
        assert first[0] == other[0]
        assert np.array_equal(first[1], other[1])


def test_moments_of_a_replaced_target_are_recomputed(ssim_oracle):
    """Same shape, another array: the moments kept for the old target are
    not used, and the loss is the loss against the new one."""
    x, y = image_pair((24, 32), seed=4)
    _, old = image_pair((24, 32), seed=5)
    stale = TargetMoments.of(old)
    value, grad, ran = on("native", x, y, 0.2, stale)
    assert ran == "native"
    fresh = on("native", x, y, 0.2)
    assert value == fresh[0] and np.array_equal(grad, fresh[1])
    assert_close((value, grad), oracle_loss(ssim_oracle, x, y, 0.2))


@pytest.mark.parametrize(
    "where, bad",
    [("rendered", np.nan), ("rendered", np.inf), ("rendered", -np.inf),
     ("target", np.nan), ("target", np.inf)],
)
@pytest.mark.parametrize("size", [(24, 32), (7, 9), (1, 40)], ids=lambda s: f"{s[0]}x{s[1]}")
def test_non_finite_pixels_give_the_references_nan_pattern(size, where, bad):
    """The reference's banded products meet a non-finite value with their
    zeros (0 inf, 0 NaN), so its whole channel goes NaN; ``native`` gives
    that channel NaN too, and the other channels the reference's values."""
    x, y = image_pair(size, seed=6)
    (x if where == "rendered" else y)[size[0] // 2, size[1] // 3, 1] = bad
    with np.errstate(all="ignore"):  # the target's moments meet it too
        value, grad, _ = on("native", x, y)
        want_value, want_grad, _ = on("numpy", x, y)
    assert np.isnan(value) and np.isnan(want_value)
    nan = np.isnan(want_grad)
    assert nan[..., 1].all() and not nan[..., [0, 2]].any()
    assert np.array_equal(np.isnan(grad), nan)
    finite = ~nan
    scale = np.abs(want_grad[finite]).max()
    assert np.abs(grad[finite] - want_grad[finite]).max() <= GRAD_REL * scale


@pytest.mark.parametrize(
    "case, operand",
    [("grayscale", "x"), ("float32", "x"), ("strided rendered", "x"), ("strided target", "y")],
)
def test_what_native_refuses_the_reference_runs_when_named(case, operand):
    """An image ``native`` does not take is refused by its binder, naming
    the operand, never handed to the reference; the reference, asked for by
    name, computes the loss."""
    x, y = image_pair((24, 32), seed=7)
    if case == "grayscale":
        x, y = image_pair((24, 32), seed=7, channels=0)
    elif case == "float32":
        x, y = image_pair((24, 32), seed=7, dtype=np.float32)
    elif case == "strided rendered":
        x = np.repeat(x, 2, axis=1)[:, ::2]
    else:
        y = np.asfortranarray(y)
    with pytest.raises(ValueError, match=f"native photometric_loss: {operand} is "):
        on("native", x, y)
    value, grad, ran = on("numpy", x, y)
    assert ran == "numpy" and np.isfinite(value) and grad.shape == x.shape


def test_threads_at_once_agree_with_serial_calls():
    """The C keeps its scratch per call: calls from two threads at once (the
    pooled executors' workers compute losses) get the serial results."""
    pairs = [image_pair((64, 96), seed=s) for s in (10, 11)]
    moments = [TargetMoments.of(y) for _, y in pairs]
    ops = OpDispatch("native")
    want = [
        loss.photometric_loss(x, y, 0.2, m, kernel_backend=ops)
        for (x, y), m in zip(pairs, moments)
    ]
    assert ops.active == "native"
    got, errors = [[], []], []

    def worker(k):
        try:
            (x, y), m = pairs[k], moments[k]
            for _ in range(40):
                got[k].append(loss.photometric_loss(x, y, 0.2, m, kernel_backend=ops))
        except BaseException as exc:  # surfaced below, on the test's thread
            errors.append(exc)
            raise

    threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not errors and not any(thread.is_alive() for thread in threads)
    for k in (0, 1):
        assert len(got[k]) == 40
        for value, grad in got[k]:
            assert value == want[k][0] and np.array_equal(grad, want[k][1])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
def test_allocation_failure_is_a_memory_error():
    """A 1000x1000 image wants ~48 MB of scratch: with the address space
    capped 32 MB above what the process has (its operands, calloc'ed,
    included), the C's one malloc fails, which must arrive as a
    ``MemoryError``, and the process lives on to compute a loss again."""
    script = textwrap.dedent(
        """
        import resource
        import numpy as np
        from repro.gaussians import loss
        from repro.gaussians.loss import TargetMoments

        shape = (1000, 1000, 3)
        x, y = np.zeros(shape), np.zeros(shape)
        planes = np.zeros((3, 1000, 1000))
        moments = TargetMoments(y, (11, 1.5), planes, planes, planes, planes)
        small = np.zeros((24, 32, 3))
        loss.photometric_loss(small, small, kernel_backend="native")  # built
        with open("/proc/self/statm") as handle:
            have = int(handle.read().split()[0]) * resource.getpagesize()
        resource.setrlimit(resource.RLIMIT_AS, (have + (32 << 20), -1))
        try:
            loss.photometric_loss(x, y, 0.2, moments, kernel_backend="native")
        except MemoryError as exc:
            print("MemoryError:", exc)
        again = loss.photometric_loss(small, small, kernel_backend="native")
        print("alive", again[1].shape)
        """
    )
    src = os.path.dirname(os.path.dirname(os.path.dirname(native_backend.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr[-2000:]
    lines = done.stdout.splitlines()
    assert lines == [
        "MemoryError: native photometric_loss could not allocate its scratch "
        "(1000x1000 image)",
        "alive (24, 32, 3)",
    ], done.stdout
