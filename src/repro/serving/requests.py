"""The serving request model: one render request, and simulated arrival
processes that generate deterministic concurrent request streams.

A :class:`RenderRequest` is a camera plus timing metadata — when the
request arrived and how much latency its SLO tolerates.  The three stream
generators model the traffic shapes a render service actually sees:

- :func:`poisson_stream` — memoryless arrivals, views drawn uniformly
  (the classical open-loop load model);
- :func:`bursty_stream` — arrivals clump into bursts aimed at one "hot"
  view and its neighbours (a popular viewpoint going viral), the shape
  that stresses admission control;
- :func:`trajectory_stream` — viewers dwell on a view then step to the
  next one along a camera trajectory (a guided tour / fly-through).
  Consecutive requests share most of their in-frustum Gaussians, which is
  exactly the §4.2.3 locality the batch planner's TSP ordering and the
  fingerprint-keyed plan cache exploit — here across *requests* instead
  of training microbatches.

All generators are seeded and fully deterministic: the same
``(cameras, arguments, seed)`` triple always yields the same stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.gaussians.camera import Camera, look_at_camera
from repro.utils.rng import SeedLike, make_rng


@dataclass(frozen=True)
class RenderRequest:
    """One user render request.

    ``view_id`` identifies the requested camera within the serving camera
    set (requests for the same view coalesce into one render); ``slo_s``
    is the latency budget relative to ``arrival_s``.
    """

    request_id: int
    view_id: int
    camera: Camera
    arrival_s: float
    slo_s: float

    @property
    def deadline_s(self) -> float:
        """Absolute completion deadline."""
        return self.arrival_s + self.slo_s


def ring_cameras(
    views_per_ring: int = 12,
    radii: Sequence[float] = (2.2, 5.5, 12.0),
    center: Sequence[float] = (0.0, 0.0, 0.0),
    height_frac: float = 0.4,
    fov_y_deg: float = 60.0,
    width: int = 64,
    height_px: int = 48,
) -> List[Camera]:
    """Concentric inward-facing orbit rings at increasing distance.

    The serving analogue of :func:`repro.scenes.trajectories.orbit_trajectory`
    with the jitter removed (deterministic without consuming an RNG stream)
    and one ring per radius — near rings exercise the full-detail path,
    far rings the LOD-culled one.  ``view_id`` runs contiguously across
    rings, ring-major.
    """
    center = np.asarray(center, dtype=np.float64)
    cams: List[Camera] = []
    for ring, radius in enumerate(radii):
        for i in range(views_per_ring):
            theta = 2.0 * math.pi * i / views_per_ring
            eye = center + np.array(
                [
                    radius * math.cos(theta),
                    radius * math.sin(theta),
                    height_frac * radius,
                ]
            )
            cams.append(
                look_at_camera(
                    eye=eye,
                    target=center,
                    fov_y_deg=fov_y_deg,
                    width=width,
                    height=height_px,
                    view_id=ring * views_per_ring + i,
                )
            )
    return cams


def _finish(
    cameras: Sequence[Camera],
    view_idx: np.ndarray,
    arrivals: np.ndarray,
    slo_s: float,
) -> List[RenderRequest]:
    """Materialize requests from parallel view/arrival arrays."""
    return [
        RenderRequest(
            request_id=i,
            view_id=cameras[int(view_idx[i])].view_id,
            camera=cameras[int(view_idx[i])],
            arrival_s=float(arrivals[i]),
            slo_s=float(slo_s),
        )
        for i in range(view_idx.size)
    ]


def poisson_stream(
    cameras: Sequence[Camera],
    num_requests: int,
    rate_rps: float,
    slo_s: float = 0.25,
    seed: SeedLike = 0,
    start_s: float = 0.0,
) -> List[RenderRequest]:
    """Memoryless arrivals at ``rate_rps`` with uniformly random views."""
    if rate_rps <= 0.0:
        raise ValueError("rate_rps must be positive")
    rng = make_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    arrivals = start_s + np.cumsum(gaps)
    view_idx = rng.integers(0, len(cameras), size=num_requests)
    return _finish(cameras, view_idx, arrivals, slo_s)


def bursty_stream(
    cameras: Sequence[Camera],
    num_requests: int,
    rate_rps: float,
    burst_size: int = 8,
    spread: int = 1,
    slo_s: float = 0.25,
    seed: SeedLike = 0,
    start_s: float = 0.0,
) -> List[RenderRequest]:
    """Bursts of ~``burst_size`` near-simultaneous requests for one hot
    view (± ``spread`` neighbouring views).

    The long-run rate still averages ``rate_rps``; the burst structure is
    what fills the queue and trips capacity-based admission control.
    """
    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    rng = make_rng(seed)
    num_bursts = (num_requests + burst_size - 1) // burst_size
    burst_starts = start_s + np.cumsum(
        rng.exponential(burst_size / rate_rps, size=num_bursts)
    )
    arrivals = np.empty(num_requests)
    view_idx = np.empty(num_requests, dtype=np.int64)
    hot = rng.integers(0, len(cameras), size=num_bursts)
    pos = 0
    for b in range(num_bursts):
        count = min(burst_size, num_requests - pos)
        # Within-burst arrivals are packed tight (~1000x the base rate).
        offsets = np.cumsum(
            rng.exponential(1.0 / (1000.0 * rate_rps), size=count)
        )
        arrivals[pos : pos + count] = burst_starts[b] + offsets
        view_idx[pos : pos + count] = (
            hot[b] + rng.integers(-spread, spread + 1, size=count)
        ) % len(cameras)
        pos += count
    order = np.argsort(arrivals, kind="stable")
    return _finish(cameras, view_idx[order], arrivals[order], slo_s)


def trajectory_stream(
    cameras: Sequence[Camera],
    num_requests: int,
    rate_rps: float,
    dwell: int = 6,
    slo_s: float = 0.25,
    seed: SeedLike = 0,
    start_s: float = 0.0,
) -> List[RenderRequest]:
    """Trajectory-locality arrivals: Poisson timing, but the requested view
    dwells ``dwell`` requests at each trajectory position before stepping
    forward (wrapping around for multi-lap streams).

    Nearby requests share in-frustum sets, so coalesced batches repeat —
    the regime in which the plan cache converts §4.2.3 request ordering
    from per-batch work into a lookup.
    """
    if dwell < 1:
        raise ValueError("dwell must be >= 1")
    rng = make_rng(seed)
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    arrivals = start_s + np.cumsum(gaps)
    view_idx = (np.arange(num_requests) // dwell) % len(cameras)
    return _finish(cameras, view_idx, arrivals, slo_s)


STREAMS = ("poisson", "bursty", "trajectory")


def build_stream(
    kind: str,
    cameras: Sequence[Camera],
    num_requests: int,
    rate_rps: float,
    slo_s: float = 0.25,
    seed: SeedLike = 0,
    **kwargs,
) -> List[RenderRequest]:
    """Dispatch by stream name (the CLI/benchmark entry point)."""
    if kind == "poisson":
        return poisson_stream(
            cameras, num_requests, rate_rps, slo_s=slo_s, seed=seed, **kwargs
        )
    if kind == "bursty":
        return bursty_stream(
            cameras, num_requests, rate_rps, slo_s=slo_s, seed=seed, **kwargs
        )
    if kind == "trajectory":
        return trajectory_stream(
            cameras, num_requests, rate_rps, slo_s=slo_s, seed=seed, **kwargs
        )
    raise ValueError(f"unknown stream '{kind}'; choose from {STREAMS}")
