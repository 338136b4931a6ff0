"""Functional parameter stores (the §5.2 kernel equivalents)."""

import numpy as np
import pytest

from repro.planning.caching import build_transfer_plan
from repro.core.stores import (
    GpuCriticalStore,
    GpuWorkingSet,
    PinnedParameterStore,
)
from repro.gaussians.model import GaussianModel
from repro.hardware.memory import MemoryPool, OutOfMemoryError


@pytest.fixture()
def model():
    return GaussianModel.random(20, sh_degree=1, seed=4)


class TestPinnedStore:
    def test_gather_roundtrips_model_values(self, model):
        store = PinnedParameterStore(model)
        idx = np.array([3, 7, 11])
        out = store.gather_params(idx)
        np.testing.assert_allclose(out["sh"], model.sh[idx])
        np.testing.assert_allclose(
            out["opacity_logits"], model.opacity_logits[idx]
        )

    def test_rows_padded_to_cache_lines(self, model):
        store = PinnedParameterStore(model)
        assert store.row_floats % 16 == 0
        assert store.row_floats >= store.data_floats

    def test_write_params_roundtrip(self, model):
        store = PinnedParameterStore(model)
        idx = np.array([0, 5])
        vals = store.gather_params(idx)
        vals["sh"] += 1.0
        vals["opacity_logits"] -= 2.0
        store.write_params(idx, vals)
        again = store.gather_params(idx)
        np.testing.assert_allclose(again["sh"], model.sh[idx] + 1.0)
        np.testing.assert_allclose(
            again["opacity_logits"], model.opacity_logits[idx] - 2.0
        )

    def test_accumulate_grads_fetch_add_store(self, model):
        store = PinnedParameterStore(model)
        idx = np.array([2, 4])
        sh_g = np.ones((2,) + model.sh.shape[1:])
        op_g = np.ones(2)
        store.accumulate_grads(idx, sh_g, op_g)
        store.accumulate_grads(idx, sh_g, op_g)
        # One packed row a Gaussian: its SH gradients, then its opacity's.
        np.testing.assert_allclose(store.grads[idx, : store.sh_basis * 3 + 1], 2.0)

    def test_zero_grads(self, model):
        store = PinnedParameterStore(model)
        idx = np.array([1])
        store.accumulate_grads(idx, np.ones((1,) + model.sh.shape[1:]), np.ones(1))
        store.zero_grads(idx)
        assert not np.any(store.grads[idx])


class TestCriticalStore:
    def test_holds_only_critical_attributes(self, model):
        store = GpuCriticalStore(model)
        assert set(store.params()) == {"positions", "log_scales", "quaternions"}

    def test_gather_copies(self, model):
        store = GpuCriticalStore(model)
        out = store.gather(np.array([0]))
        out["positions"][:] = 42.0
        assert not np.any(store.positions == 42.0)

    def test_grad_accumulation(self, model):
        store = GpuCriticalStore(model)
        idx = np.array([1, 2])
        g = {
            "positions": np.ones((2, 3)),
            "log_scales": np.ones((2, 3)),
            "quaternions": np.ones((2, 4)),
        }
        store.accumulate_grads(idx, g)
        store.accumulate_grads(idx, g)
        np.testing.assert_allclose(store.grads["positions"][idx], 2.0)
        store.zero_grads(idx)
        assert not np.any(store.grads["positions"][idx])

    def test_packed_and_per_name_grad_paths_agree(self, model):
        """Micro-assert of the PR 4 vectorization: the packed-row
        accumulate/zero path equals the old per-name loop, and the named
        grads are views into the packed array (no copies)."""
        store = GpuCriticalStore(model)
        rng = np.random.default_rng(0)
        reference = {
            "positions": np.zeros((model.num_gaussians, 3)),
            "log_scales": np.zeros((model.num_gaussians, 3)),
            "quaternions": np.zeros((model.num_gaussians, 4)),
        }
        for idx in (np.array([0, 3, 7]), np.array([3, 9]), np.array([7])):
            g = {
                "positions": rng.normal(size=(idx.size, 3)),
                "log_scales": rng.normal(size=(idx.size, 3)),
                "quaternions": rng.normal(size=(idx.size, 4)),
            }
            store.accumulate_grads(idx, g)
            for name, buf in reference.items():  # the legacy per-name loop
                buf[idx] += g[name]
        for name, buf in reference.items():
            np.testing.assert_allclose(store.grads[name], buf)
            assert store.grads[name].base is store._packed_grads
        store.zero_grads(np.array([3]))
        for name in reference:
            assert not np.any(store.grads[name][3])
            assert np.any(store.grads[name][7])

    def test_pool_accounting(self, model):
        pool = MemoryPool(1e9)
        store = GpuCriticalStore(model, pool=pool)
        assert pool.used == 160 * 20
        store.release()
        assert pool.used == 0

    def test_pool_oom(self, model):
        with pytest.raises(OutOfMemoryError):
            GpuCriticalStore(model, pool=MemoryPool(100))


class TestWorkingSet:
    def assemble_chain(self, model, sets, pool=None):
        cpu = PinnedParameterStore(model)
        gpu = GpuCriticalStore(model, pool=pool)
        ws = GpuWorkingSet(cpu, gpu, pool=pool, num_pixels=100)
        steps = build_transfer_plan(sets)
        models = []
        carried = None
        for step in steps:
            m = ws.assemble(step.working_set, step.loads, step.cached, carried)
            models.append(m)
            carried = ws.retire(step.stores, step.carried)
        return cpu, gpu, ws, models

    def test_assembled_model_matches_master(self, model):
        sets = [np.array([0, 1, 2]), np.array([1, 2, 3])]
        _, _, ws, models = self.assemble_chain(model, sets)
        for s, m in zip(sets, models):
            np.testing.assert_allclose(m.positions, model.positions[s])
            np.testing.assert_allclose(m.sh, model.sh[s])
            np.testing.assert_allclose(
                m.opacity_logits, model.opacity_logits[s]
            )

    def test_counters_match_plan(self, model):
        sets = [np.array([0, 1, 2]), np.array([1, 2, 3])]
        _, _, ws, _ = self.assemble_chain(model, sets)
        assert ws.counters.loaded_gaussians == 3 + 1
        assert ws.counters.cached_gaussians == 2
        assert ws.counters.stored_gaussians == 1 + 3

    def test_cache_copy_requires_previous_buffer(self, model):
        cpu = PinnedParameterStore(model)
        gpu = GpuCriticalStore(model)
        ws = GpuWorkingSet(cpu, gpu)
        with pytest.raises(RuntimeError):
            ws.assemble(np.array([0, 1]), np.array([0]), np.array([1]), None)

    def test_gradient_carry_accumulates(self, model):
        """Carried gradients land in the next buffer and reach the CPU
        exactly once, with the right totals."""
        sets = [np.array([0, 1]), np.array([1, 2])]
        cpu = PinnedParameterStore(model)
        gpu = GpuCriticalStore(model)
        ws = GpuWorkingSet(cpu, gpu, num_pixels=10)
        steps = build_transfer_plan(sets)

        def fake_grads(m, value):
            return {
                "positions": np.zeros((m.num_gaussians, 3)),
                "log_scales": np.zeros((m.num_gaussians, 3)),
                "quaternions": np.zeros((m.num_gaussians, 4)),
                "sh": np.full((m.num_gaussians,) + m.sh.shape[1:], value),
                "opacity_logits": np.full(m.num_gaussians, value),
            }

        carried = None
        for step, value in zip(steps, (1.0, 10.0)):
            m = ws.assemble(step.working_set, step.loads, step.cached, carried)
            ws.add_grads(fake_grads(m, value))
            carried = ws.retire(step.stores, step.carried)

        # Gaussian 0: only batch 1 -> grad 1.  Gaussian 1: both -> 11.
        # Gaussian 2: only batch 2 -> 10.
        opacity = cpu.grads[[0, 1, 2], cpu.sh_basis * 3]
        np.testing.assert_allclose(opacity, [1.0, 11.0, 10.0])

    def test_pool_enforces_budget(self, model):
        pool = MemoryPool(160 * 20 + 5000)  # critical state + a little
        sets = [np.arange(15)]
        with pytest.raises(OutOfMemoryError):
            self.assemble_chain(model, sets, pool=pool)

    def test_release_frees_pool(self, model):
        pool = MemoryPool(1e9)
        cpu = PinnedParameterStore(model)
        gpu = GpuCriticalStore(model, pool=pool)
        ws = GpuWorkingSet(cpu, gpu, pool=pool, num_pixels=10)
        steps = build_transfer_plan([np.array([0, 1])])
        ws.assemble(steps[0].working_set, steps[0].loads, steps[0].cached)
        assert pool.used > 160 * 20
        ws.release()
        assert pool.used == 160 * 20
