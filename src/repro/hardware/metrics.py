"""Profiling metrics over simulated schedules.

Reproduces the Nsight-Systems-derived measurements of the paper:

- **SM-active sampling** (Figure 15): the schedule is sampled at 10 kHz;
  a sample is "active" when a GPU compute task is running.  The GPU idle
  rate CDF is ``100 - SMs Active`` exactly as in §6.4.
- **PCIe RX/TX utilization** (Table 7): per-direction busy-byte accounting
  over the profiled window, including the bidirectional traffic of the
  accumulating gradient-offload kernel (§5.3 / Appendix A.4).
- **CPU utilization** (Table 7): CPU Adam thread busy time across cores.
- **DRAM read/write utilization** (Table 7): bytes moved by compute and
  copy kernels against the GPU memory bandwidth envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.hardware.simulator import ScheduleResult
from repro.hardware.specs import DeviceTopology, Testbed

#: The lanes of a single-device schedule: device 0's of a
#: :class:`DeviceTopology`, so the Figure 15 sampling below reads a classic
#: schedule and a K=1 topology schedule alike.
GPU_COMPUTE = DeviceTopology.compute_resource(0)
GPU_COMM = DeviceTopology.comm_resource(0)
CPU_ADAM = DeviceTopology.adam_resource(0)
CPU_SCHED = DeviceTopology.SCHED_RESOURCE


def _busy_mask(
    intervals: Iterable[Tuple[float, float]], sample_times: np.ndarray
) -> np.ndarray:
    """Boolean mask of samples falling inside any busy interval."""
    mask = np.zeros(sample_times.shape, dtype=bool)
    for start, end in intervals:
        mask |= (sample_times >= start) & (sample_times < end)
    return mask


def sm_active_samples(
    result: ScheduleResult, sample_rate_hz: float = 10_000.0
) -> np.ndarray:
    """Per-sample SM-active percentage (0 or 100 in our binary model)."""
    horizon = result.makespan
    if horizon <= 0:
        return np.zeros(0)
    times = np.arange(0.0, horizon, 1.0 / sample_rate_hz)
    busy = _busy_mask(result.intervals(GPU_COMPUTE), times)
    return np.where(busy, 100.0, 0.0)


def gpu_idle_rate_cdf(
    result: ScheduleResult, sample_rate_hz: float = 10_000.0
) -> "tuple[np.ndarray, np.ndarray]":
    """CDF of ``100 - SMs Active`` (Figure 15).

    Returns ``(idle_rates, cumulative_fraction)`` sorted ascending; the
    area *above* the curve tracks average utilization.
    """
    samples = 100.0 - sm_active_samples(result, sample_rate_hz)
    if samples.size == 0:
        return np.zeros(0), np.zeros(0)
    sorted_rates = np.sort(samples)
    cdf = np.arange(1, samples.size + 1) / samples.size
    return sorted_rates, cdf


def average_gpu_utilization(result: ScheduleResult) -> float:
    """Mean SMs-active over the schedule in [0, 100].

    Multi-device schedules report the mean across every ``*.compute``
    resource present (per-device breakdowns come from
    ``result.utilization(topology.compute_resources())``).
    """
    util = result.utilization()
    compute = [res for res in util.busy_s if res.endswith(".compute")]
    if not compute:
        return 0.0
    return 100.0 * sum(util.fraction(res) for res in compute) / len(compute)


@dataclass
class HardwareUtilization:
    """One row-group of Table 7 (all values are percentages)."""

    cpu_util: float
    dram_read: float
    dram_write: float
    pcie_rx: float
    pcie_tx: float


def hardware_utilization(
    result: ScheduleResult, testbed: Testbed
) -> HardwareUtilization:
    """Aggregate utilization percentages over a profiled schedule.

    Tasks annotate their traffic via payload keys:
    ``rx_bytes`` / ``tx_bytes`` (PCIe, from the comm stream), and
    ``dram_read_bytes`` / ``dram_write_bytes`` (GPU memory traffic from
    compute kernels).
    """
    horizon = result.makespan
    if horizon <= 0:
        return HardwareUtilization(0, 0, 0, 0, 0)

    rx = tx = dread = dwrite = 0.0
    sched_busy = 0.0
    adam_by_batch: Dict[tuple, List[Tuple[float, float]]] = {}
    for rec in result.records.values():
        p = rec.task.payload
        rx += p.get("rx_bytes", 0.0)
        tx += p.get("tx_bytes", 0.0)
        dread += p.get("dram_read_bytes", 0.0)
        dwrite += p.get("dram_write_bytes", 0.0)
        if rec.task.resource == CPU_SCHED:
            sched_busy += rec.end - rec.start
        elif rec.task.resource.endswith(".adam"):
            # One flight window per (batch, Adam lane): multi-device
            # schedules run a dedicated cpu{k}.adam thread per shard.
            key = (p.get("batch", rec.task.name), rec.task.resource)
            adam_by_batch.setdefault(key, []).append((rec.start, rec.end))

    # The dedicated CPU Adam thread (§5.4) busy-waits on the pinned signal
    # buffer between chunks, so profilers count it in flight from its first
    # to its last chunk of each batch — the paper's SCHED_EVENTS
    # methodology.  With a single Adam block per batch (naive) the window
    # collapses to the block itself.
    cpu_busy = sched_busy
    for intervals in adam_by_batch.values():
        cpu_busy += max(e for _, e in intervals) - min(s for s, _ in intervals)

    # Adam's vectorized update keeps most (not all) cores busy while active.
    cpu_cores_used = max(1, int(round(0.75 * testbed.cpu.cores)))
    pcie_peak = testbed.pcie.peak_bandwidth * horizon
    dram_peak = testbed.gpu.dram_bandwidth * horizon
    cpu_util = 100.0 * cpu_busy * cpu_cores_used / (horizon * testbed.cpu.cores)
    return HardwareUtilization(
        cpu_util=min(100.0, cpu_util),
        dram_read=min(100.0, 100.0 * dread / dram_peak),
        dram_write=min(100.0, 100.0 * dwrite / dram_peak),
        pcie_rx=min(100.0, 100.0 * rx / pcie_peak),
        pcie_tx=min(100.0, 100.0 * tx / pcie_peak),
    )


def communication_volume(result: ScheduleResult) -> Dict[str, float]:
    """Total bytes by direction over a schedule."""
    rx = sum(r.task.payload.get("rx_bytes", 0.0) for r in result.records.values())
    tx = sum(r.task.payload.get("tx_bytes", 0.0) for r in result.records.values())
    return {"rx_bytes": rx, "tx_bytes": tx}


def adam_trailing_time(result: ScheduleResult) -> float:
    """Table 5b's metric: CPU Adam finish minus last gradient-store finish.

    Zero when every Adam chunk hid under subsequent GPU work.
    """
    stores = [r.end for r in result.records.values() if r.task.kind == "store"]
    adams = [r.end for r in result.records.values() if r.task.kind == "adam"]
    if not adams:
        return 0.0
    last_store = max(stores) if stores else 0.0
    return max(0.0, max(adams) - last_store)


def runtime_decomposition(result: ScheduleResult) -> Dict[str, float]:
    """Figure 13-style breakdown of a schedule.

    Returns wall-clock seconds attributed to: overlapped pipeline
    (compute+comm span), scheduling, and non-overlapped CPU Adam tail.
    Also reports raw busy times per category for the naive decomposition.
    Multi-device schedules sum the per-device ``gpu{k}.*`` / ``cpu{k}.adam``
    lanes into each category.
    """
    util = result.utilization()
    compute = comm = sched = adam = 0.0
    for res, busy in util.busy_s.items():
        if res.endswith(".compute"):
            compute += busy
        elif res.endswith(".comm"):
            comm += busy
        elif res == CPU_SCHED:
            sched = busy
        elif res.endswith(".adam"):
            adam += busy
    trailing = adam_trailing_time(result)
    return {
        "total": result.makespan,
        "compute_busy": compute,
        "comm_busy": comm,
        "scheduling": sched,
        "cpu_adam_busy": adam,
        "cpu_adam_trailing": trailing,
        "pipeline_span": result.makespan - sched - trailing,
    }
