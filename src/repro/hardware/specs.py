"""Hardware specifications of the paper's two testbeds (§6.1).

Testbed A: AMD Threadripper PRO 5955WX (16 cores), 128 GB RAM,
RTX 4090 (24 GB) over PCIe 4.0.
Testbed B: Intel Xeon E5-2660 v3 (20 cores), 256 GB RAM,
RTX 2080 Ti (11 GB) over PCIe 3.0.

The RTX 2080 Ti has ~7x fewer CUDA-core FLOPs than the 4090 and PCIe 3.0
has half the bandwidth of 4.0 — the two ratios the paper leans on to
explain why offloading overhead hides better on the slower GPU.

The CPU Adam throughputs distinguish *dense* streaming updates (naive
offloading touches every Gaussian contiguously; memory-bandwidth-bound at
DRAM streaming rates) from *sparse* scattered updates (CLM touches the
finalized subset in index order; bound by random-access DRAM behaviour).
Both are calibrated against the paper's runtime decomposition (Figure 13)
and Adam trailing times (Table 5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.hardware.pcie import PCIE3_X16, PCIE4_X16, PcieSpec


@dataclass(frozen=True)
class GpuSpec:
    """GPU compute/memory envelope."""

    name: str
    vram_bytes: float
    flops: float  # effective FP32 throughput for the rasterization kernels
    sm_count: int
    dram_bandwidth: float  # bytes/s
    reserved_bytes: float = 1.5e9  # CUDA context + allocator slack


@dataclass(frozen=True)
class CpuSpec:
    """Host CPU envelope, reduced to the quantities the pipeline needs."""

    name: str
    cores: int
    ram_bytes: float
    dense_adam_params_per_s: float
    sparse_adam_params_per_s: float
    dram_bandwidth: float


#: Pseudo device id of the host (CPU + pinned memory) in a
#: :class:`DeviceTopology` link map.
HOST = -1

@dataclass(frozen=True)
class DeviceTopology:
    """K simulated accelerators + one host, with the links between them.

    The first-class answer to "what may a simulated schedule run on":

    - per-device serial resources — ``gpu{k}.compute`` (the compute
      stream) and ``gpu{k}.comm`` (the prioritized copy stream) — plus one
      host Adam lane ``cpu{k}.adam`` per device shard (the dedicated
      CPU-Adam thread of §5.4, one per device) and a shared host
      scheduling thread ``cpu.sched``;
    - a directional ``links`` map of :class:`PcieSpec` operating points
      keyed by ``(src, dst)`` device ids, with :data:`HOST` (= -1) for the
      CPU side, so halo exchange between shards and host offload traffic
      are costed on the link they actually cross.

    :class:`~repro.hardware.simulator.Simulator` accepts a topology and
    then validates every task's resource name against it.  These names are
    the simulator's one vocabulary: the single-device DAG builders of
    :mod:`repro.core.pipeline` schedule on device 0's
    (:data:`repro.hardware.metrics.GPU_COMPUTE` is ``gpu0.compute``), so a
    classic schedule and a K=1 topology schedule name the same lanes.
    """

    devices: Tuple[GpuSpec, ...]
    host: CpuSpec
    links: Mapping[Tuple[int, int], PcieSpec] = field(default_factory=dict)
    name: str = "topology"

    # -- structure ------------------------------------------------------
    @property
    def num_devices(self) -> int:
        return len(self.devices)

    @property
    def device_ids(self) -> Tuple[int, ...]:
        return tuple(range(len(self.devices)))

    def device(self, k: int) -> GpuSpec:
        return self.devices[k]

    # -- resource naming ------------------------------------------------
    @staticmethod
    def compute_resource(k: int) -> str:
        """The serial compute stream of device ``k``."""
        return f"gpu{k}.compute"

    @staticmethod
    def comm_resource(k: int) -> str:
        """The prioritized communication stream of device ``k``."""
        return f"gpu{k}.comm"

    @staticmethod
    def adam_resource(k: int) -> str:
        """Host CPU-Adam lane dedicated to device ``k``'s shard (§5.4)."""
        return f"cpu{k}.adam"

    #: Shared host-side scheduling thread (TSP + culling bookkeeping).
    SCHED_RESOURCE = "cpu.sched"

    def compute_resources(self) -> Tuple[str, ...]:
        return tuple(self.compute_resource(k) for k in self.device_ids)

    def comm_resources(self) -> Tuple[str, ...]:
        return tuple(self.comm_resource(k) for k in self.device_ids)

    def resources(self) -> Tuple[str, ...]:
        """Every canonical resource name this topology schedules on."""
        out = []
        for k in self.device_ids:
            out.append(self.compute_resource(k))
            out.append(self.comm_resource(k))
            out.append(self.adam_resource(k))
        out.append(self.SCHED_RESOURCE)
        return tuple(out)

    def canonicalize(self, resource: str) -> str:
        """Return ``resource`` if it is one of :meth:`resources`; anything
        else raises."""
        if resource not in self.resources():
            raise ValueError(
                f"resource '{resource}' is not part of topology "
                f"'{self.name}' ({self.num_devices} devices)"
            )
        return resource

    # -- link costing ---------------------------------------------------
    def link(self, src: int, dst: int) -> PcieSpec:
        """The link a ``src -> dst`` transfer crosses (falls back to the
        reverse direction's spec when only one direction is declared)."""
        spec = self.links.get((src, dst)) or self.links.get((dst, src))
        if spec is None:
            raise KeyError(
                f"no link between device {src} and device {dst} in "
                f"topology '{self.name}'"
            )
        return spec

    def transfer_time(
        self,
        src: int,
        dst: int,
        num_bytes: float,
        scattered: bool = False,
        direction: Optional[str] = None,
    ) -> float:
        """Seconds to move ``num_bytes`` from ``src`` to ``dst``.

        ``direction`` (the :meth:`PcieSpec.transfer_time` efficiency
        selector) defaults to ``h2d`` for host-to-device, ``d2h`` for
        device-to-host, and bulk-friendly ``h2d`` for peer transfers
        (halo rows are packed into a contiguous send buffer first).
        """
        if direction is None:
            direction = "d2h" if dst == HOST else "h2d"
        return self.link(src, dst).transfer_time(
            num_bytes, scattered=scattered, direction=direction
        )

    # -- constructors ---------------------------------------------------
    @classmethod
    def single(cls, testbed: "Testbed") -> "DeviceTopology":
        """The one-GPU topology of a classic :class:`Testbed`."""
        return cls(
            devices=(testbed.gpu,),
            host=testbed.cpu,
            links={(HOST, 0): testbed.pcie, (0, HOST): testbed.pcie},
            name=f"{testbed.name}-x1",
        )

    @classmethod
    def homogeneous(
        cls,
        testbed: "Testbed",
        num_devices: int,
        peer_pcie: Optional[PcieSpec] = None,
    ) -> "DeviceTopology":
        """K copies of ``testbed.gpu`` on one host.

        Every device gets the testbed's host link; every device pair gets
        ``peer_pcie`` (default: the same spec — PCIe peer-to-peer through
        the switch, no NVLink modelled).
        """
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        peer = peer_pcie or testbed.pcie
        links: Dict[Tuple[int, int], PcieSpec] = {}
        for k in range(num_devices):
            links[(HOST, k)] = testbed.pcie
            links[(k, HOST)] = testbed.pcie
            for j in range(num_devices):
                if j != k:
                    links[(k, j)] = peer
        return cls(
            devices=tuple(testbed.gpu for _ in range(num_devices)),
            host=testbed.cpu,
            links=links,
            name=f"{testbed.name}-x{num_devices}",
        )


@dataclass(frozen=True)
class Testbed:
    """A machine: GPU + CPU + interconnect."""

    name: str
    gpu: GpuSpec
    cpu: CpuSpec
    pcie: PcieSpec

    @property
    def topology(self) -> DeviceTopology:
        """This machine as a single-device :class:`DeviceTopology` — the
        routing object simulators and cost models consume, so multi-device
        code paths treat the classic testbeds as the K=1 special case."""
        return DeviceTopology.single(self)


RTX4090 = GpuSpec(
    name="RTX 4090",
    vram_bytes=24e9,
    flops=82.6e12,
    sm_count=128,
    dram_bandwidth=1008e9,
)

RTX2080TI = GpuSpec(
    name="RTX 2080 Ti",
    vram_bytes=11e9,
    # Effective rasterization throughput.  The 2080 Ti has ~7x fewer
    # CUDA-core FLOPs than the 4090, but the 3DGS kernels are memory-bound:
    # the paper's own cross-testbed throughput ratios (Figure 12a vs 12b)
    # imply an effective gap of ~1.65x, matching the DRAM-bandwidth ratio.
    flops=50.0e12,
    sm_count=68,
    dram_bandwidth=616e9,
)

THREADRIPPER_5955WX = CpuSpec(
    name="Threadripper PRO 5955WX",
    cores=16,
    ram_bytes=128e9,
    dense_adam_params_per_s=2.5e9,
    sparse_adam_params_per_s=1.2e9,
    dram_bandwidth=80e9,
)

XEON_E5_2660V3 = CpuSpec(
    name="Xeon E5-2660 v3",
    cores=20,
    ram_bytes=256e9,
    dense_adam_params_per_s=1.6e9,
    sparse_adam_params_per_s=0.8e9,
    dram_bandwidth=50e9,
)

RTX4090_TESTBED = Testbed(
    name="rtx4090", gpu=RTX4090, cpu=THREADRIPPER_5955WX, pcie=PCIE4_X16
)

RTX2080TI_TESTBED = Testbed(
    name="rtx2080ti", gpu=RTX2080TI, cpu=XEON_E5_2660V3, pcie=PCIE3_X16
)

TESTBEDS = {t.name: t for t in (RTX4090_TESTBED, RTX2080TI_TESTBED)}
