"""DeviceTopology: resource naming, link costing, and the
ScheduleResult.utilization() summary."""

import warnings

import pytest

from repro.hardware.metrics import GPU_COMM
from repro.hardware.simulator import Simulator
from repro.hardware.specs import (
    HOST,
    RTX4090_TESTBED,
    DeviceTopology,
)


@pytest.fixture(scope="module")
def quad():
    return DeviceTopology.homogeneous(RTX4090_TESTBED, 4)


def test_single_matches_testbed_property():
    topo = DeviceTopology.single(RTX4090_TESTBED)
    assert topo.num_devices == 1
    assert RTX4090_TESTBED.topology.resources() == topo.resources()


def test_resource_names(quad):
    assert quad.compute_resources() == tuple(
        f"gpu{k}.compute" for k in range(4)
    )
    assert quad.comm_resources() == tuple(f"gpu{k}.comm" for k in range(4))
    res = quad.resources()
    assert "cpu.sched" in res
    assert "cpu2.adam" in res
    assert len(res) == 3 * 4 + 1


def test_canonicalize_passes_canonical_names(quad):
    assert quad.canonicalize("gpu3.comm") == "gpu3.comm"


def test_canonicalize_rejects_unknown(quad):
    with pytest.raises(ValueError, match="not part of topology"):
        quad.canonicalize("gpu9.compute")


@pytest.mark.parametrize("name", ["gpu.compute", "gpu.comm", "cpu.adam"])
def test_canonicalize_rejects_unnumbered_names(quad, name):
    """The pre-topology names are foreign like any other: no device-0
    alias."""
    with pytest.raises(ValueError, match="not part of topology"):
        quad.canonicalize(name)


def test_links_cover_host_and_peers(quad):
    for k in range(4):
        assert quad.link(HOST, k) is RTX4090_TESTBED.pcie
        assert quad.link(k, HOST) is RTX4090_TESTBED.pcie
    assert quad.link(1, 3) is RTX4090_TESTBED.pcie
    with pytest.raises(KeyError):
        DeviceTopology.single(RTX4090_TESTBED).link(0, 1)


def test_transfer_time_directions(quad):
    n = 64e6
    h2d = quad.transfer_time(HOST, 2, n)
    d2h = quad.transfer_time(2, HOST, n)
    assert h2d > 0 and d2h > 0
    assert h2d == RTX4090_TESTBED.pcie.transfer_time(
        n, scattered=False, direction="h2d"
    )
    assert d2h == RTX4090_TESTBED.pcie.transfer_time(
        n, scattered=False, direction="d2h"
    )
    assert quad.transfer_time(1, 2, n) > 0  # peer link


def test_homogeneous_rejects_zero_devices():
    with pytest.raises(ValueError):
        DeviceTopology.homogeneous(RTX4090_TESTBED, 0)


# -- Simulator routing + utilization summary ---------------------------


def test_simulator_routes_legacy_names_onto_device_zero(quad):
    """The single-device lanes (``repro.hardware.metrics``' names) are
    device 0's of any topology: they route there as they are, with no alias
    and no warning."""
    sim = Simulator(topology=quad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = sim.add("LD", GPU_COMM, 1.0)
    sim.add("FWD", quad.compute_resource(0), 2.0, deps=[t])
    schedule = sim.run()
    by_name = {
        rec.task.name: rec.task.resource
        for rec in schedule.records.values()
    }
    assert by_name["LD"] == "gpu0.comm"


def test_simulator_without_topology_accepts_any_name():
    """Without a topology every string is its own serial lane, the
    unnumbered pre-topology names included."""
    sim = Simulator()
    sim.add("A", "gpu.compute", 1.0)
    sim.add("B", "gpu0.compute", 1.0)
    schedule = sim.run()
    assert schedule.makespan == pytest.approx(1.0)
    assert {rec.task.resource for rec in schedule.records.values()} == {
        "gpu.compute",
        "gpu0.compute",
    }


def test_simulator_rejects_foreign_resources(quad):
    sim = Simulator(topology=quad)
    with pytest.raises(ValueError, match="not part of topology"):
        sim.add("X", "gpu7.compute", 1.0)


def test_utilization_summary(quad):
    sim = Simulator(topology=quad)
    sim.add("A", quad.compute_resource(0), 3.0)
    sim.add("B", quad.compute_resource(1), 1.0)
    schedule = sim.run()
    util = schedule.utilization()
    assert util.makespan == pytest.approx(3.0)
    assert util.fraction(quad.compute_resource(0)) == pytest.approx(1.0)
    assert util.fraction(quad.compute_resource(1)) == pytest.approx(1 / 3)
    # Restricting to a resource list reports 0 for idle entries.
    full = schedule.utilization(quad.compute_resources())
    assert full.fraction(quad.compute_resource(3)) == 0.0
    summary = util.summary()
    assert summary["makespan"] == pytest.approx(3.0)
    assert summary[f"util.{quad.compute_resource(0)}"] == pytest.approx(1.0)
