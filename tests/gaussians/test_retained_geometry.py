"""A view's geometry is computed once and read back by the backward pass.

``preprocess`` retains what it derived from the model — activated scales,
unit quaternions, rotation matrices, view directions — on the projection;
the backward pass consumes it.  A context whose retained fields were
dropped rebuilds them from the model and must reach the same gradients,
and every retained byte is counted by ``RenderContext.activation_bytes``
without leaving the analytic pool model's per-Gaussian allowance.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings

from repro.core.memory_model import ACT_PER_GAUSSIAN
from repro.gaussians import quaternion
from repro.gaussians.camera import look_at_camera
from repro.gaussians.covariance import GaussianShape
from repro.gaussians.rasterizer import RasterSettings, rasterize_forward
from repro.gaussians.rasterizer_grad import rasterize_backward
from test_compute_bins import MODEL_CASES, generated_model

GROUP_TOL = 1e-13


def forward_backward(cam, model, seed, drop_retained=False, settings_=None):
    img, _, ctx = rasterize_forward(cam, model, settings_ or RasterSettings())
    if drop_retained:
        ctx.proj = dataclasses.replace(
            ctx.proj, shapes=None, dirs=None, dir_norms=None
        )
    g_img = np.random.default_rng(seed).normal(size=img.shape)
    return ctx, rasterize_backward(ctx, model, g_img)


@given(**MODEL_CASES)
@example(seed=5101, num=23, size=(56, 39), scale=-0.5)
@settings(max_examples=30, deadline=None)
def test_backward_from_retained_geometry_matches_a_rebuild(seed, num, size, scale):
    """On the NumPy reference, where both sides run the same backward.  A
    projection whose geometry was dropped is differentiated by the
    reference's backward pass, so on ``native`` the two sides would be its
    C backward against the reference's — the rounding the parity suites
    hold to 1e-10 — and not retained geometry against rebuilt geometry.
    ``native``'s retained geometry is held to 2 ulp below."""
    cam, model = generated_model(seed, num, size, scale)
    reference = RasterSettings(kernel_backend="numpy")
    ctx, kept = forward_backward(cam, model, seed, settings_=reference)
    assert ctx.proj.shapes is not None and ctx.proj.dirs is not None
    _, rebuilt = forward_backward(cam, model, seed, drop_retained=True, settings_=reference)
    assert kept.keys() == rebuilt.keys()
    for name in kept:
        scale_of = max(1.0, float(np.abs(rebuilt[name]).max()))
        assert np.abs(kept[name] - rebuilt[name]).max() <= GROUP_TOL * scale_of, name


NARROW = look_at_camera(
    eye=(0.0, -2.5, 0.6), target=(0.3, 0.0, 0.0), fov_y_deg=12.0,
    width=48, height=40,
)


def test_retained_geometry_is_that_of_the_rendered_rows(tiny_model):
    # Bit-equality with ``GaussianShape.of`` is the NumPy op's: it *is*
    # that function.  (``native`` is held to 2 ulp just below.)
    _, _, ctx = rasterize_forward(
        NARROW, tiny_model, RasterSettings(kernel_backend="numpy")
    )
    proj = ctx.proj
    assert 0 < proj.ids.size < tiny_model.num_gaussians
    want = GaussianShape.of(
        tiny_model.log_scales[proj.ids], tiny_model.quaternions[proj.ids]
    )
    for field in dataclasses.fields(GaussianShape):
        assert np.array_equal(
            getattr(proj.shapes, field.name), getattr(want, field.name)
        ), field.name
    want_dirs, want_norms = quaternion.unit_and_norm(proj.offsets)
    assert np.array_equal(proj.dirs, want_dirs)
    assert np.array_equal(proj.dir_norms, want_norms)


def test_retained_geometry_of_the_resolved_backend_is_within_two_ulp(tiny_model):
    """The same comparison on whatever ``auto`` resolves to: libm's ``exp``
    and NumPy's may differ in the last bit, nothing else may."""
    _, _, ctx = rasterize_forward(NARROW, tiny_model, RasterSettings())
    proj = ctx.proj
    assert 0 < proj.ids.size < tiny_model.num_gaussians
    want = GaussianShape.of(
        tiny_model.log_scales[proj.ids], tiny_model.quaternions[proj.ids]
    )
    for field in dataclasses.fields(GaussianShape):
        got, ref = getattr(proj.shapes, field.name), getattr(want, field.name)
        assert got.shape == ref.shape, field.name
        assert (np.abs(got - ref) <= 2 * np.spacing(np.abs(ref))).all(), field.name
    want_dirs, want_norms = quaternion.unit_and_norm(proj.offsets)
    assert (np.abs(proj.dirs - want_dirs) <= 2 * np.spacing(np.abs(want_dirs))).all()
    assert (np.abs(proj.dir_norms - want_norms) <= 2 * np.spacing(want_norms)).all()


def test_activation_bytes_count_every_retained_field(tiny_camera, tiny_model):
    settings_ = RasterSettings(cache_blend_state=False)
    _, _, ctx = rasterize_forward(tiny_camera, tiny_model, settings_)
    proj = ctx.proj
    m = proj.ids.size
    per_gaussian = (ctx.activation_bytes() - ctx.bins.num_entries * 8) / m
    assert per_gaussian == int(per_gaussian) <= ACT_PER_GAUSSIAN
    # Every per-Gaussian array the context holds, at 8 bytes an element
    # (the boolean clamp mask is budgeted as floats, ``ids`` as the keys).
    arrays = [
        getattr(proj, f.name)
        for f in dataclasses.fields(proj)
        if isinstance(getattr(proj, f.name), np.ndarray) and f.name != "ids"
    ] + [
        getattr(proj.shapes, f.name) for f in dataclasses.fields(GaussianShape)
    ]
    assert all(a.shape[0] == m for a in arrays)
    assert per_gaussian == 8 * sum(a[0].size for a in arrays)
    # 272 bytes of screen-space state + 168 of retained geometry.
    assert per_gaussian == 440
    bare = dataclasses.replace(proj, shapes=None, dirs=None, dir_norms=None)
    ctx.proj = bare
    assert (ctx.activation_bytes() - ctx.bins.num_entries * 8) / m == 272


def test_closed_form_rotation_backprop_builds_no_jacobian(monkeypatch, rng):
    """``backprop_rotation`` equals the contraction with the explicit
    ``(N, 4, 3, 3)`` Jacobian (its oracle) without calling it."""
    q = quaternion.normalize(rng.normal(size=(64, 4)))
    upstream = rng.normal(size=(64, 3, 3))
    want = np.einsum(
        "nqij,nij->nq", quaternion.rotation_matrix_jacobian(q), upstream
    )

    def forbidden(_):
        raise AssertionError("the Jacobian tensor was materialised")

    monkeypatch.setattr(quaternion, "rotation_matrix_jacobian", forbidden)
    got = quaternion.backprop_rotation(upstream, q)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    # Non-contiguous upstream gradients (a transposed view) work too.
    swapped = np.swapaxes(upstream, 1, 2)
    np.testing.assert_allclose(
        quaternion.backprop_rotation(swapped, q),
        np.einsum("nkl,nl->nk",
                  (swapped.reshape(64, 9) @ quaternion._ROTATION_JACOBIAN_COEFFS
                   ).reshape(64, 4, 4), q),
    )
    assert quaternion.backprop_rotation(np.zeros((0, 3, 3)), np.zeros((0, 4))).shape == (0, 4)
