"""The 3D Gaussian Splatting substrate.

This subpackage is a from-scratch, pure-NumPy implementation of the 3DGS
training pipeline that CLM (the paper's contribution, in :mod:`repro.core`)
offloads: parameter storage, projection, frustum culling, differentiable
tile rasterization with an analytic backward pass, the training loss, and
adaptive densification.  It is the stand-in for the CUDA/gsplat kernels used
by the paper's artifact; the algorithms are identical, only the execution
substrate differs (see DESIGN.md §2).
"""

from repro.gaussians.model import GaussianModel, PARAMS_PER_GAUSSIAN
from repro.gaussians.camera import Camera, look_at_camera
from repro.gaussians.frustum import frustum_planes, cull_batch, cull_gaussians
from repro.gaussians.render import render, render_backward, RenderResult
from repro.gaussians.loss import l1_loss, ssim, psnr, photometric_loss
from repro.gaussians.spatial import CullingGrid

__all__ = [
    "GaussianModel",
    "PARAMS_PER_GAUSSIAN",
    "Camera",
    "look_at_camera",
    "frustum_planes",
    "cull_batch",
    "cull_gaussians",
    "render",
    "render_backward",
    "RenderResult",
    "l1_loss",
    "ssim",
    "psnr",
    "photometric_loss",
    "CullingGrid",
]
