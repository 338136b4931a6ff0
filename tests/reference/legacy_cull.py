"""The frustum cull before the bounding-sphere prefilter: the reference of
every culling path.

Test-only oracle, moved here verbatim from ``tests/conftest.py`` (where the
``cull_oracle`` fixture still hands it out).
"""

from __future__ import annotations

import numpy as np

from repro.gaussians import quaternion
from repro.gaussians.frustum import frustum_planes


def single_level_cull(camera, positions, log_scales, raw_quats):
    """The frustum cull as it was before the bounding-sphere prefilter:
    the exact 3-sigma support test on every row of the model.

    Test-only oracle.  :func:`repro.gaussians.frustum.cull_batch` (and
    everything built on it) must reproduce these index sets with
    ``np.array_equal`` — the arithmetic is spelled out here rather than
    imported, so a change to the product code cannot move both sides.
    """
    planes = frustum_planes(camera)
    normals = planes[:, :3]
    signed = positions @ normals.T + planes[:, 3]  # (N, P)
    rot = quaternion.to_rotation_matrices(quaternion.normalize(raw_quats))
    v = np.einsum("nji,pj->pni", rot, normals) * np.exp(log_scales)[None]
    radii = 3.0 * np.linalg.norm(v, axis=-1)  # (P, N)
    inside = np.all(signed + radii.T >= 0.0, axis=1)
    return np.nonzero(inside)[0].astype(np.int64)
