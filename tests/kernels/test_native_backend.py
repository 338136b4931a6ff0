"""The ``native`` backend: its cells, its cuts, its determinism, its build.

The C view ops face the legacy per-tile oracle (``rasterize_*_legacy`` over
``tile_alpha_weights``, ``tests/reference/legacy_raster.py``) at the bars every backend is held to — image and
transmittance <= 1e-12, gradients <= 1e-10 — on hand-built models where the
semantics have an edge: the threshold tie on a pixel centre, the cap,
termination, zero opacity, compute tiles other than 8.
One thresholded cell dropped by the footprint rectangle or the ``exp`` cut
moves a pixel or its transmittance by >= alpha_threshold * colour (4e-7 at
the very least), so the same bars show that neither cut is ever wrong.
The build half drives :class:`NativeLibrary` through every way a host can
be: no cache, a damaged cache, somebody else's cache, a compiler that
fails, two threads arriving at once.
"""

import os
import sys
import threading
import warnings
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compute_bins import MODEL_CASES, assert_matches_oracle, generated_model

from repro.gaussians.camera import Camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings, rasterize_forward
from repro.gaussians.rasterizer_grad import rasterize_backward
from repro.gaussians.sh import _C0 as SH_C0
from repro.kernels import (
    ENV_VAR,
    backend_status,
    get_backend,
    native_backend,
    rows_spec,
)
from repro.kernels.native_backend import CFLAGS, NativeLibrary

BUILDS = {row["name"]: row for row in backend_status()}["native"]["available"]
needs_compiler = pytest.mark.skipif(not BUILDS, reason="no working C compiler")
#: With RuntimeWarning an error, a render pinned to ``native`` either ran on
#: it or failed the test: falling back warns.
strict = pytest.mark.filterwarnings("error::RuntimeWarning")

TAU = RasterSettings().alpha_threshold
NATIVE = RasterSettings(kernel_backend="native")


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)


def on_axis(width, height, centre, logits, log_scales, offsets=None, colors=None):
    """A camera looking down +z, its principal point at ``centre``, and one
    degree-0 Gaussian a logit at the origin 3 units in front of it — every
    mean projects exactly onto ``centre`` (a pixel centre on half-integers)
    — or ``offsets`` (x, y) beside it.  ``colors`` rows of 0 / 1 set each
    channel to 1 or clamp it to 0."""
    cam = Camera(
        rotation=np.eye(3), center=np.array([0.0, 0.0, -3.0]), fx=20.0, fy=20.0,
        cx=centre[0], cy=centre[1], width=width, height=height,
    )
    m = len(logits)
    positions = np.zeros((m, 3))
    if offsets is not None:
        positions[:, :2] = offsets
    sh = np.zeros((m, 1, 3))
    if colors is not None:
        sh[:, 0] = np.where(np.asarray(colors) > 0, 0.5, -1.0) / SH_C0
    model = GaussianModel(
        positions=positions,
        log_scales=np.repeat(np.asarray(log_scales, dtype=np.float64)[:, None], 3, axis=1),
        quaternions=np.tile([1.0, 0.0, 0.0, 0.0], (m, 1)), sh=sh,
        opacity_logits=np.asarray(logits, dtype=np.float64), sh_degree=0,
    )
    return cam, model


def assert_native_matches_oracle(cam, model, opts):
    """The view ops on ``native`` against the per-tile oracle (cells, image,
    transmittance, gradients), the backward walking the blend records and
    replaying the forward; returns native's image and transmittance."""
    opts = replace(opts, kernel_backend="native")
    for records in (True, False):
        assert_matches_oracle(cam, model, replace(opts, cache_blend_state=records))
    img, t, ctx = rasterize_forward(cam, model, opts)
    assert ctx.kernel_backend == "native" and ctx.blocks is not None
    return img, t


# ---------------------------------------------------------------------------
# Hand-built cells
# ---------------------------------------------------------------------------
@needs_compiler
@strict
@pytest.mark.parametrize(
    "threshold, passes",
    [
        (np.nextafter(0.5, 1.0), False),
        (0.5, True),  # alpha_raw == opacity * exp(0) == threshold: >= keeps it
        (np.nextafter(0.5, 0.0), True),
    ],
    ids=["below", "at", "above"],
)
def test_threshold_tie_on_a_pixel_centre(threshold, passes):
    """A pixel centre exactly on the mean has ``power == 0``: the cell's
    alpha is the opacity itself (logit 0: exactly 0.5 on either side), and
    the tie falls where the loop puts it."""
    cam, model = on_axis(16, 16, (4.5, 9.5), [0.0], [-2.5])
    _, t = assert_native_matches_oracle(cam, model, RasterSettings(alpha_threshold=threshold))
    assert t[9, 4] == (0.5 if passes else 1.0)
    assert np.count_nonzero(t != 1.0) == int(passes)


@needs_compiler
@strict
def test_cells_at_the_cap_blend_without_a_gate():
    """Opacities 1 (logit 40) and 0.995 on one pixel centre, capped at 0.5."""
    cam, model = on_axis(24, 16, (8.5, 8.5), [40.0, 5.3], [-1.2, -0.8])
    opts = RasterSettings(max_alpha=0.5, background=(0.2, 0.4, 0.6))
    _, t = assert_native_matches_oracle(cam, model, opts)
    assert t[8, 8] == 0.5 * 0.5  # both splats capped on that pixel


@needs_compiler
@strict
@pytest.mark.parametrize("t_min", [0.5, 1e-4, 0.0])
def test_transmittance_keeps_multiplying_after_termination(t_min):
    """Four 0.9 splats on one pixel: past ``transmittance_min`` they stop
    emitting, but the transmittance image still carries all four."""
    colors = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]
    cam, model = on_axis(16, 16, (8.5, 8.5), [np.log(9.0)] * 4, [-1.0] * 4, colors=colors)
    img, t = assert_native_matches_oracle(cam, model, RasterSettings(transmittance_min=t_min))
    assert t[8, 8] == pytest.approx(1e-4, rel=1e-12)
    emitted = 1 if t_min == 0.5 else 4  # T_before: 1, 0.1, 0.01, 0.001
    assert np.count_nonzero(img[8, 8]) == min(emitted, 3)
    assert (img[8, 8, 1] > 0) == (emitted > 1)


@needs_compiler
@strict
def test_zero_opacity_rows_under_a_zero_threshold():
    """``alpha_threshold=0`` passes every cell, ``0 >= 0`` included: the
    logits of -inf are opacities of exactly 0."""
    cam, model = on_axis(
        20, 12, (10.0, 6.0), [-np.inf, 0.85, -np.inf], [-1.6, -1.2, -1.8],
        offsets=[[-0.75, -0.15], [-0.08, 0.08], [0.6, -0.3]],
    )
    opts = RasterSettings(alpha_threshold=0.0, transmittance_min=0.0)
    assert_native_matches_oracle(cam, model, opts)


@needs_compiler
@strict
@pytest.mark.parametrize("tile_size", [4, 12, 16, 20, 32])
def test_any_compute_tile_size(tile_size):
    """8 divides 16 and 32 (compute tile 8); 4, 12 and 20 are their own
    compute tiles — 20 has 400 pixels, more than any fixed 16x16 buffer."""
    cam, model = generated_model(seed=tile_size, num=40, size=(61, 45), scale=-2.0)
    opts = replace(NATIVE, tile_size=tile_size, background=(0.3, 0.6, 0.9))
    bins = assert_matches_oracle(cam, model, opts, seed=tile_size)
    assert bins.tile_size == (8 if tile_size % 8 == 0 else tile_size)


@strict
@pytest.mark.parametrize("backend", ["numpy", pytest.param("native", marks=needs_compiler)])
@pytest.mark.parametrize("tile_size", [0, -3])
def test_an_invalid_tile_size_is_one_error_on_both_backends(backend, tile_size):
    """``rasterizer.compute_tile`` is the one compute-tile rule: the NumPy
    binning and the C view ops refuse a tile size below 1 alike (NumPy once
    divided by zero at 0 and failed to allocate at -3)."""
    cam, model = generated_model(seed=1, num=10, size=(24, 18), scale=-2.0)
    opts = RasterSettings(tile_size=tile_size, kernel_backend=backend)
    with pytest.raises(ValueError, match=f"^tile_size must be positive, got {tile_size}$"):
        rasterize_forward(cam, model, opts)


# ---------------------------------------------------------------------------
# The cuts never drop a passing cell
# ---------------------------------------------------------------------------
@needs_compiler
@strict
@given(
    t_min=st.sampled_from([1e-4, 0.0, 0.5]),
    max_alpha=st.sampled_from([0.99, 0.5]),
    tau=st.sampled_from([TAU, 0.0]),
    records=st.booleans(),
    **MODEL_CASES,
)
@settings(max_examples=40, deadline=None)
def test_generated_models_match_legacy(
    seed, num, size, scale, t_min, max_alpha, tau, records
):
    """The backward pass walks the blend records, or replays the forward
    (``cache_blend_state=False``)."""
    cam, model = generated_model(seed, num, size, scale)
    opts = replace(
        NATIVE, background=(0.3, 0.6, 0.9), transmittance_min=t_min,
        max_alpha=max_alpha, alpha_threshold=tau, cache_blend_state=records,
    )
    assert_matches_oracle(cam, model, opts, seed=seed % 1000)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------
def render_and_backprop(cam, model, g_img):
    img, t, ctx = rasterize_forward(cam, model, NATIVE)
    assert ctx.kernel_backend == "native" and ctx.blend_cache is None
    grads = rasterize_backward(ctx, model, g_img)
    return [img, t] + [grads[name] for name in sorted(grads)]


@needs_compiler
@strict
def test_two_runs_and_two_threads_are_bit_identical():
    """Program-order IEEE arithmetic and no shared state: a repeat is
    ``array_equal``, also when another thread is inside the kernels (the
    ctypes calls release the GIL)."""
    cam, model = generated_model(seed=5, num=40, size=(61, 45), scale=-0.5)
    g_img = np.random.default_rng(5).normal(size=(45, 61, 3))
    first = render_and_backprop(cam, model, g_img)
    results, errors = [], []

    def worker():
        try:
            for _ in range(10):
                results.append(render_and_backprop(cam, model, g_img))
        except BaseException as exc:  # surfaced below, on the test's thread
            errors.append(exc)
            raise

    threads = [threading.Thread(target=worker) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors and not any(thread.is_alive() for thread in threads)
    assert len(results) == 30
    for again in results:
        assert all(np.array_equal(a, b) for a, b in zip(first, again))


# ---------------------------------------------------------------------------
# Building, caching, loading
# ---------------------------------------------------------------------------
@pytest.fixture()
def fresh(monkeypatch, tmp_path):
    """The registered backend with nothing found, built or compiled yet,
    and an empty cache directory of its own."""
    backend = get_backend("native")
    monkeypatch.setattr(backend, "_library", None)
    monkeypatch.setattr(backend, "_compiled", {})
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return backend


def tiny_render(opts=None):
    cam, model = generated_model(seed=1, num=10, size=(24, 18), scale=-2.0)
    return rasterize_forward(cam, model, opts or RasterSettings())[2]


def test_source_ships_inside_the_package():
    """``[tool.setuptools.package-data]`` carries ``kernels/*.c`` into a
    non-editable install; the backend reads it the same way."""
    source = resources.files("repro.kernels").joinpath(native_backend.SOURCE)
    text = source.read_text()
    assert "int view_composite(" in text and "int train_step(" in text
    tomllib = pytest.importorskip("tomllib")
    root = os.path.join(os.path.dirname(__file__), "..", "..", "pyproject.toml")
    with open(root, "rb") as handle:
        project = tomllib.load(handle)
    assert "kernels/*.c" in project["tool"]["setuptools"]["package-data"]["repro"]
    assert "optional-dependencies" not in project["project"] or (
        "jit" not in project["project"]["optional-dependencies"]
    )


def test_flags_keep_ieee_rounding():
    assert "-ffp-contract=off" in CFLAGS
    assert not [
        flag for flag in CFLAGS
        if flag.startswith(("-ffast-math", "-Ofast", "-march", "-mtune", "-fopenmp"))
    ]


@needs_compiler
def test_first_use_builds_into_the_users_cache(fresh, tmp_path, monkeypatch):
    ctx = tiny_render()
    assert ctx.kernel_backend == "native"
    lib = fresh.library()
    directory = tmp_path / "cache" / "repro-kernels"
    assert lib.path.parent == directory
    assert (directory.stat().st_mode & 0o777) == 0o700
    assert [p.name for p in directory.iterdir()] == [lib.path.name]  # no temp left
    assert str(lib.path) in fresh.detail() and lib.compiler[0] in fresh.detail()
    # A second process (here: a second library object) loads, not builds.
    monkeypatch.setattr(NativeLibrary, "_build", lambda *args: pytest.fail("rebuilt"))
    again = NativeLibrary()
    again.load()
    assert again.path == lib.path


@needs_compiler
def test_truncated_cached_library_is_rebuilt_not_loaded(fresh):
    first = NativeLibrary()
    first.load()
    whole = first.path.read_bytes()
    # A new inode under the cached name (this process has the old one mapped).
    damaged = first.path.with_suffix(".damaged")
    damaged.write_bytes(whole[: len(whole) // 2])
    damaged.chmod(0o700)
    os.replace(damaged, first.path)
    second = NativeLibrary()
    second.load()
    rebuilt = second.path.read_bytes()
    assert second.path.name == NativeLibrary._name(
        second.path.name.split("-")[1], rebuilt
    )
    assert len(rebuilt) > len(whole) // 2
    fresh._library = second
    assert tiny_render().kernel_backend == "native"


@needs_compiler
def test_library_others_could_have_written_is_not_loaded(fresh):
    first = NativeLibrary()
    first.load()
    os.chmod(first.path, 0o766)
    second = NativeLibrary()
    second.load()  # rebuilt over it, private again
    assert not second.path.stat().st_mode & 0o022
    os.chmod(second.path.parent, 0o777)  # now the directory itself is open
    third = NativeLibrary()
    third.load()
    assert third.path.parent != second.path.parent
    assert not third.path.parent.stat().st_mode & 0o077  # mkdtemp: 0700


@needs_compiler
def test_unusable_cache_directory_means_a_private_build(fresh, tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    assert tiny_render().kernel_backend == "native"
    built_in = fresh.library().path.parent
    assert blocker not in built_in.parents
    assert not built_in.stat().st_mode & 0o077


@needs_compiler
def test_two_threads_racing_the_first_use_compile_once(fresh, monkeypatch):
    builds = []
    build = NativeLibrary._build

    def counting(self, *args):
        builds.append(threading.get_ident())
        return build(self, *args)

    monkeypatch.setattr(NativeLibrary, "_build", counting)
    gate = threading.Barrier(4)
    kernels, errors = [], []

    def first_use():
        try:
            gate.wait(timeout=60)
            kernels.append(fresh.compile(rows_spec("zero_rows", np.zeros((4, 10)))))
        except BaseException as exc:
            errors.append(exc)
            raise

    threads = [threading.Thread(target=first_use) for _ in range(4)]
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
    assert len(kernels) == 4 and len(builds) == 1


def failing_compiler(tmp_path, version_works):
    script = tmp_path / "cc-that-fails"
    script.write_text(
        "#!/bin/sh\n"
        + ('[ "$1" = --version ] && echo "failing-cc 1.0" && exit 0\n' if version_works else "")
        + "echo 'cc: internal error' >&2\nexit 1\n"
    )
    script.chmod(0o755)
    return str(script)


@pytest.mark.parametrize("version_works", [True, False], ids=["compile", "version"])
def test_failed_build_warns_once_then_runs_on_numpy(
    fresh, tmp_path, monkeypatch, version_works
):
    monkeypatch.setenv("CC", failing_compiler(tmp_path, version_works))
    assert fresh.available()  # a compiler was found; nothing was tried yet
    with pytest.warns(RuntimeWarning, match="failed to compile") as caught:
        ctx = tiny_render()
    assert len(caught) == 1 and ctx.kernel_backend == "numpy"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # silent from here on
        contexts = [tiny_render() for _ in range(3)]
        rasterize_backward(
            contexts[0], generated_model(seed=1, num=10, size=(24, 18), scale=-2.0)[1],
            np.ones((18, 24, 3)),
        )
    assert {c.kernel_backend for c in contexts} == {"numpy"}
    assert not fresh.available()
    row = {r["name"]: r for r in backend_status()}["native"]
    assert row["available"] is False and row["detail"].startswith("unavailable: ")
    if version_works:
        assert "exited 1" in row["detail"] and "internal error" in row["detail"]
    # Asking for it by name now says so, like any unavailable backend.
    with pytest.warns(RuntimeWarning, match="not available"):
        assert tiny_render(NATIVE).kernel_backend == "numpy"
