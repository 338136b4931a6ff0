"""Schedule metrics: idle CDFs, utilization, trailing time, decomposition."""

import warnings

import numpy as np
import pytest

from repro.hardware.metrics import (
    GPU_COMM,
    GPU_COMPUTE,
    CPU_ADAM,
    CPU_SCHED,
    adam_trailing_time,
    average_gpu_utilization,
    communication_volume,
    gpu_idle_rate_cdf,
    hardware_utilization,
    runtime_decomposition,
    sm_active_samples,
)
from repro.hardware.simulator import Simulator
from repro.hardware.specs import RTX4090_TESTBED, DeviceTopology


def busy_idle_schedule():
    """1s busy compute, then 1s of comm only (GPU idle)."""
    sim = Simulator()
    a = sim.add("compute", GPU_COMPUTE, 1.0, kind="forward")
    sim.add("comm", GPU_COMM, 1.0, deps=[a], kind="store", tx_bytes=1e9,
            rx_bytes=5e8)
    return sim.run()


def test_sm_active_binary_sampling():
    samples = sm_active_samples(busy_idle_schedule(), sample_rate_hz=1000)
    assert samples.size == pytest.approx(2000, abs=2)
    assert set(np.unique(samples)) <= {0.0, 100.0}


def test_average_utilization_half():
    assert average_gpu_utilization(busy_idle_schedule()) == pytest.approx(
        50.0, abs=1.0
    )


def test_idle_cdf_shape():
    rates, cdf = gpu_idle_rate_cdf(busy_idle_schedule(), sample_rate_hz=1000)
    assert np.all(np.diff(rates) >= 0)
    assert cdf[-1] == pytest.approx(1.0)
    # ~half the samples are fully idle (rate 100), half fully busy (rate 0)
    frac_busy = np.mean(rates == 0.0)
    assert frac_busy == pytest.approx(0.5, abs=0.02)


def test_better_overlap_higher_utilization():
    """A pipelined schedule must dominate a serial one in the CDF sense —
    the Figure 15 comparison mechanism."""
    serial = Simulator()
    prev = None
    for i in range(3):
        ld = serial.add(f"ld{i}", GPU_COMM, 1.0,
                        deps=[prev] if prev is not None else [])
        prev = serial.add(f"c{i}", GPU_COMPUTE, 1.0, deps=[ld])
    pipelined = Simulator()
    prev_c = None
    prev_l = None
    for i in range(3):
        ld = pipelined.add(f"ld{i}", GPU_COMM, 1.0,
                           deps=[prev_l] if prev_l is not None else [])
        deps = [ld] + ([prev_c] if prev_c is not None else [])
        prev_c = pipelined.add(f"c{i}", GPU_COMPUTE, 1.0, deps=deps)
        prev_l = ld
    u_serial = average_gpu_utilization(serial.run())
    u_pipe = average_gpu_utilization(pipelined.run())
    assert u_pipe > u_serial


def test_hardware_utilization_percentages():
    util = hardware_utilization(busy_idle_schedule(), RTX4090_TESTBED)
    assert 0 <= util.pcie_tx <= 100
    assert util.pcie_tx > util.pcie_rx > 0


def test_communication_volume_totals():
    vol = communication_volume(busy_idle_schedule())
    assert vol["tx_bytes"] == 1e9
    assert vol["rx_bytes"] == 5e8


def test_adam_trailing_time():
    sim = Simulator()
    bwd = sim.add("bwd", GPU_COMPUTE, 1.0, kind="backward")
    st = sim.add("st", GPU_COMM, 0.5, deps=[bwd], kind="store")
    sim.add("adam", CPU_ADAM, 2.0, deps=[st], kind="adam")
    result = sim.run()
    assert adam_trailing_time(result) == pytest.approx(2.0)


def test_adam_trailing_zero_when_hidden():
    sim = Simulator()
    st = sim.add("st", GPU_COMM, 0.1, kind="store")
    sim.add("adam", CPU_ADAM, 0.5, deps=[st], kind="adam")
    sim.add("more", GPU_COMM, 5.0, deps=[st], kind="store")
    result = sim.run()
    assert adam_trailing_time(result) == 0.0


def test_runtime_decomposition_keys():
    d = runtime_decomposition(busy_idle_schedule())
    for key in ("total", "compute_busy", "comm_busy", "cpu_adam_trailing"):
        assert key in d
    assert d["total"] == pytest.approx(2.0)
    assert d["compute_busy"] == pytest.approx(1.0)


def test_empty_schedule():
    result = Simulator().run()
    assert average_gpu_utilization(result) == 0.0
    rates, cdf = gpu_idle_rate_cdf(result)
    assert rates.size == 0


def test_classic_and_single_device_topology_schedules_read_alike():
    """The single-device lanes are device 0's of a topology, so a DAG
    scheduled without one and on a K=1 topology gives the same Figure 15,
    Table 7 and Figure 13 numbers — and naming them warns about nothing."""

    def schedule(sim):
        sched = sim.add("sched", CPU_SCHED, 0.2, kind="sched")
        ld = sim.add("ld", GPU_COMM, 1e-3, deps=[sched], kind="load",
                     rx_bytes=4e6)
        fwd = sim.add("fwd", GPU_COMPUTE, 2e-3, deps=[ld], kind="forward",
                      dram_read_bytes=1e6)
        st = sim.add("st", GPU_COMM, 0.5e-3, deps=[fwd], kind="store",
                     tx_bytes=2e6)
        sim.add("adam", CPU_ADAM, 1e-3, deps=[st], kind="adam")
        return sim.run()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        classic = schedule(Simulator())
        single = schedule(
            Simulator(topology=DeviceTopology.single(RTX4090_TESTBED))
        )
    active = sm_active_samples(classic)
    assert active.mean() > 0.0
    np.testing.assert_array_equal(sm_active_samples(single), active)
    for got, want in zip(gpu_idle_rate_cdf(single), gpu_idle_rate_cdf(classic)):
        np.testing.assert_array_equal(got, want)
    assert hardware_utilization(single, RTX4090_TESTBED) == (
        hardware_utilization(classic, RTX4090_TESTBED)
    )
    assert runtime_decomposition(single) == runtime_decomposition(classic)


def test_figure15_reads_device_zero_of_a_multi_device_topology():
    """On a K>1 topology the Figure 15 samples are device 0's compute lane;
    work on another device does not count as SM-active."""
    quad = DeviceTopology.homogeneous(RTX4090_TESTBED, 4)
    sim = Simulator(topology=quad)
    sim.add("fwd0", quad.compute_resource(0), 1.0, kind="forward")
    sim.add("fwd1", quad.compute_resource(1), 2.0, kind="forward")
    result = sim.run()
    samples = sm_active_samples(result, sample_rate_hz=1000)
    assert samples.mean() == pytest.approx(50.0, abs=0.2)
    rates, _ = gpu_idle_rate_cdf(result, sample_rate_hz=1000)
    assert np.mean(rates == 0.0) == pytest.approx(0.5, abs=0.002)
