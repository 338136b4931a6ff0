"""The auto-tuner's calibrated per-op cost model.

Two ingredients, exactly as ROADMAP item 5 prescribes:

- **Priors from ``hardware/specs``**: before anything is measured, rates
  come from the :class:`repro.hardware.kernels.KernelCostModel` built on a
  :class:`~repro.hardware.specs.Testbed` — the same constants the
  discrete-event pipeline simulation uses.  Their absolute scale models
  the paper's CUDA hardware, not this repo's functional NumPy kernels,
  but the argmin over candidates only needs the *relative* shape
  (backward ≈ 2× forward, Adam seconds ∝ finalized rows, transfer
  seconds ∝ moved rows), which the specs encode.
- **Measured rates**: every executed batch reports per-op seconds and
  unit counts (working-set rows rendered, chunk rows updated, rows
  moved); :meth:`CostModel.observe` folds ``seconds/units`` into an
  exponential moving average per op key.  A single observation replaces
  the prior entirely — from then on predictions are anchored to this
  machine, and the EMA tracks drift (thermal throttling, competing
  load) without forgetting history.

Keys are one-element tuples ``(op,)``: no tuned knob changes the rate of
an op per unit, so an op has one rate.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.hardware.kernels import KernelCostModel
from repro.hardware.specs import RTX4090_TESTBED, Testbed

#: Per-task hand-off cost of running an op on a pool worker instead of
#: the training thread (condition-variable wake + GIL hand-off) — charged
#: by predictions for every overlapped Adam chunk so worker counts are
#: not free in the model.
DISPATCH_OVERHEAD_S = 5e-5

Key = Tuple


class CostModel:
    """Seconds-per-unit rate table: specs priors + online calibration."""

    def __init__(
        self,
        testbed: Testbed = RTX4090_TESTBED,
        num_pixels: int = 1024,
        splats_per_pixel: float = 8.0,
        ema: float = 0.5,
    ) -> None:
        if not 0.0 < ema <= 1.0:
            raise ValueError(f"ema must be in (0, 1], got {ema}")
        self.kernel_costs = KernelCostModel(
            testbed=testbed, splats_per_pixel=splats_per_pixel
        )
        self.num_pixels = max(1, int(num_pixels))
        self.ema = float(ema)
        self._rates: Dict[Key, float] = {}
        self.observations = 0

    # -- calibration -----------------------------------------------------
    def observe(self, key: Key, units: float, seconds: float) -> None:
        """Fold one measurement of ``seconds`` over ``units`` into the
        rate for ``key`` (no-op for empty or non-positive measurements)."""
        if units <= 0 or seconds <= 0:
            return
        rate = seconds / units
        prev = self._rates.get(key)
        if prev is None:
            self._rates[key] = rate
        else:
            self._rates[key] = self.ema * rate + (1.0 - self.ema) * prev
        self.observations += 1

    def measured(self, key: Key) -> bool:
        return key in self._rates

    # -- rate lookup -----------------------------------------------------
    def rate(self, key: Key) -> float:
        """Seconds per unit for ``key``: measured, else the specs prior."""
        hit = self._rates.get(key)
        if hit is not None:
            return hit
        return self._prior(key)

    def _prior(self, key: Key) -> float:
        kc = self.kernel_costs
        op = key[0]
        if op == "forward":
            # Per-row rate at a nominal working set, pixel term amortized.
            nominal = 1000.0
            return kc.forward_time(nominal, self.num_pixels) / nominal
        if op == "backward":
            nominal = 1000.0
            return kc.backward_time(nominal, self.num_pixels) / nominal
        if op == "adam":
            return kc.cpu_adam_sparse_time(1.0)
        if op == "critical_adam":
            return kc.gpu_adam_time(1.0) - kc.kernel_launch_overhead
        if op == "overhead":
            # Assemble/retire traffic: one non-critical row over PCIe.
            return kc.load_params_time(1.0)
        raise KeyError(f"unknown cost-model op {op!r}")

    # -- typed helpers (what the DAG builder calls) ----------------------
    def forward_s(self, rows: int) -> float:
        return rows * self.rate(("forward",))

    def backward_s(self, rows: int) -> float:
        return rows * self.rate(("backward",))

    def adam_s(self, rows: int) -> float:
        return rows * self.rate(("adam",))

    def critical_adam_s(self, rows: int) -> float:
        return rows * self.rate(("critical_adam",))

    def overhead_s(self, traffic_rows: int) -> float:
        """Assemble + retire cost of moving/copying ``traffic_rows``."""
        return traffic_rows * self.rate(("overhead",))

    def snapshot(self) -> Dict[str, float]:
        """Flat copy of the measured rates (diagnostics / CLI summary)."""
        return {
            ".".join(str(part) for part in key): rate
            for key, rate in sorted(
                self._rates.items(), key=lambda kv: str(kv[0])
            )
        }
