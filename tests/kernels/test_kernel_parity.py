"""Backend parity: every available backend vs the legacy golden kernels.

Mirrors ``tests/gaussians/test_raster_parity.py``: the pre-substrate
legacy forward/backward is the golden reference, and each *available*
registered backend must reproduce its images, transmittance and all five
gradient arrays to 1e-10 across seeds and group sizes.  The fused Adam
update must likewise match the NumPy reference kernel — parameters,
both moments and per-row step counts — for every backend.

On hosts without a C compiler this suite pins the reference backend
alone; everywhere else the ``native`` C kernels face the same bar.
"""

import numpy as np
import pytest
from legacy_raster import rasterize_backward_legacy, rasterize_forward_legacy

from repro.gaussians.camera import look_at_camera
from repro.gaussians.model import GaussianModel
from repro.gaussians.rasterizer import RasterSettings, rasterize_forward
from repro.gaussians.rasterizer_grad import rasterize_backward
from repro.kernels import backend_status
from repro.optim.adam import AdamConfig
from repro.optim.kernels import fused_adam_update
from repro.optim.packed_adam import PackedSparseAdam

GRAD_NAMES = ("positions", "log_scales", "quaternions", "sh", "opacity_logits")

AVAILABLE = [s["name"] for s in backend_status() if s["available"]]

ATOL = 1e-10


def make_setup(seed, num=70, width=52, height=36):
    model = GaussianModel.random(num, extent=0.8, sh_degree=2, seed=seed)
    cam = look_at_camera(
        eye=(0.2, -2.4, 0.5), target=(0, 0, 0),
        width=width, height=height, view_id=0,
    )
    g_img = np.random.default_rng(seed + 100).normal(size=(height, width, 3))
    return model, cam, g_img


def assert_raster_parity(model, cam, g_img, settings):
    img_l, t_l, ctx_l = rasterize_forward_legacy(cam, model, settings)
    img_v, t_v, ctx_v = rasterize_forward(cam, model, settings)
    assert ctx_v.kernel_backend == settings.kernel_backend
    np.testing.assert_allclose(img_v, img_l, atol=ATOL)
    np.testing.assert_allclose(t_v, t_l, atol=ATOL)
    grads_l = rasterize_backward_legacy(ctx_l, model, g_img)
    grads_v = rasterize_backward(ctx_v, model, g_img)
    for name in GRAD_NAMES:
        np.testing.assert_allclose(
            grads_v[name], grads_l[name], atol=ATOL, err_msg=name
        )


@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_raster_parity_across_seeds(backend, seed):
    model, cam, g_img = make_setup(seed)
    settings = RasterSettings(
        kernel_backend=backend, background=(0.1, 0.2, 0.3)
    )
    assert_raster_parity(model, cam, g_img, settings)


@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("group_size", [1, 3, 64])
def test_raster_parity_across_group_sizes(backend, group_size):
    model, cam, g_img = make_setup(3)
    settings = RasterSettings(kernel_backend=backend, group_size=group_size)
    assert_raster_parity(model, cam, g_img, settings)


@pytest.mark.parametrize("backend", AVAILABLE)
def test_raster_parity_without_blend_cache(backend):
    """The backward recompute route — the one every backend takes for a
    render that kept no blend state (pool-enforced training) — matches the
    cached route's golden gradients."""
    model, cam, g_img = make_setup(4)
    settings = RasterSettings(
        kernel_backend=backend, cache_blend_state=False,
        alpha_threshold=0.0, transmittance_min=0.0,
    )
    assert_raster_parity(model, cam, g_img, settings)


@pytest.mark.parametrize("backend", AVAILABLE)
def test_raster_parity_empty_model(backend):
    base = GaussianModel.random(3, sh_degree=0, seed=0)
    empty = base.gather(np.array([], dtype=np.int64))
    cam = look_at_camera(eye=(0, -3, 0.3), target=(0, 0, 0),
                         width=48, height=32, view_id=0)
    g_img = np.ones((32, 48, 3))
    settings = RasterSettings(
        kernel_backend=backend, background=(0.2, 0.4, 0.6)
    )
    assert_raster_parity(empty, cam, g_img, settings)


@pytest.mark.parametrize("backend", AVAILABLE)
def test_blend_state_is_retained_exactly_when_asked(backend):
    """Every backend keeps blend state iff ``cache_blend_state`` (NumPy its
    slab cache, ``native`` its blend records), and counts it on top of the
    activation footprint of the same render without it."""
    model, cam, _ = make_setup(5)
    on, off = (
        rasterize_forward(
            cam, model, RasterSettings(kernel_backend=backend, cache_blend_state=cache)
        )[2]
        for cache in (True, False)
    )
    assert on.blend_state_bytes() > 0 and off.blend_state_bytes() == 0
    assert on.activation_bytes() == off.activation_bytes() + on.blend_state_bytes()


@pytest.mark.parametrize("backend", AVAILABLE)
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("rows,width", [(257, 10), (1024, 16), (3000, 7)])
def test_adam_parity(backend, seed, rows, width):
    """Params, both moments and step counts match the reference kernel
    bit-for-bit-close (<= 1e-10) over several sparse steps."""
    rng = np.random.default_rng(seed)
    params = rng.standard_normal((rows, width))
    ref_params = params.copy()
    opt = PackedSparseAdam(
        {"packed": (width,)}, rows, config=AdamConfig(lr=1e-2),
        kernel_backend=backend,
    )
    ref = PackedSparseAdam(
        {"packed": (width,)}, rows, config=AdamConfig(lr=1e-2),
        kernel_backend="numpy",
    )
    for step in range(4):
        grads = rng.standard_normal((rows, width))
        subset = rng.choice(rows, size=rows // 2 + 1, replace=False)
        opt.step_packed(params, grads, subset)
        ref.step_packed(ref_params, grads, subset)
    assert opt.active_kernel_backend in (backend, "numpy")
    np.testing.assert_allclose(params, ref_params, atol=ATOL)
    np.testing.assert_allclose(opt.packed_m, ref.packed_m, atol=ATOL)
    np.testing.assert_allclose(opt.packed_v, ref.packed_v, atol=ATOL)
    np.testing.assert_array_equal(opt.steps, ref.steps)


@pytest.mark.parametrize("backend", AVAILABLE)
def test_adam_parity_against_raw_kernel(backend):
    """One dense step equals a direct fused_adam_update call."""
    rng = np.random.default_rng(7)
    rows, width = 512, 10
    params = rng.standard_normal((rows, width))
    grads = rng.standard_normal((rows, width))
    expect_p = params.copy()
    m = np.zeros((rows, width))
    v = np.zeros((rows, width))
    lr = np.full(width, 1e-2)
    fused_adam_update(expect_p, grads, m, v,
                      np.ones(rows, dtype=np.int64), lr,
                      0.9, 0.999, 1e-8)
    opt = PackedSparseAdam(
        {"packed": (width,)}, rows,
        config=AdamConfig(lr=1e-2, lr_overrides={"packed": 1e-2}),
        kernel_backend=backend,
    )
    opt.step_packed(params, grads, np.arange(rows))
    np.testing.assert_allclose(params, expect_p, atol=ATOL)
    np.testing.assert_allclose(opt.packed_m, m, atol=ATOL)
    np.testing.assert_allclose(opt.packed_v, v, atol=ATOL)
