"""GPU/pinned memory accounting (Figures 8/10, Table 6)."""

import pytest

from repro.core import memory_model as mm
from repro.hardware.specs import RTX2080TI_TESTBED, RTX4090_TESTBED

BIGCITY = mm.SceneMemoryProfile(pixels=1920 * 1080, rho_max=0.011,
                                rho_mean=0.004, name="bigcity")
RUBBLE = mm.SceneMemoryProfile(pixels=3840 * 2160, rho_max=0.12,
                               rho_mean=0.08, name="rubble")


def test_per_gaussian_constants():
    assert mm.MODEL_STATE_FULL_BPG == 59 * 4 * 4
    assert mm.NAIVE_MODEL_BPG == 59 * 2 * 4
    assert mm.CLM_CRITICAL_BPG == 10 * 4 * 4
    assert mm.CLM_BUFFER_BPG == 2 * 2 * 49 * 4


def test_unknown_system_rejected():
    with pytest.raises(ValueError):
        mm.gpu_memory_bytes("bogus", 1e6, BIGCITY)


def test_model_state_ordering_at_fixed_n():
    """Figure 10: baseline uses most GPU memory, CLM least."""
    n = 15.3e6
    totals = {
        s: mm.peak_gpu_bytes(s, n, BIGCITY) for s in mm.SYSTEMS
    }
    assert totals["baseline"] > totals["enhanced"] > totals["naive"] > totals["clm"]


def test_enhanced_saves_only_activations():
    n = 10e6
    base = mm.gpu_memory_bytes("baseline", n, RUBBLE)
    enh = mm.gpu_memory_bytes("enhanced", n, RUBBLE)
    assert base["model_states"] == enh["model_states"]
    assert base["others"] > enh["others"]


def test_max_model_size_ordering(index_cache):
    """Figure 8: CLM > naive > enhanced > baseline for every scene."""
    for name in ("bigcity", "rubble", "ithaca"):
        scene, index = index_cache(name, 1e-4, 24)
        profile = mm.profile_from_scene(scene, index)
        sizes = {
            s: mm.max_model_size(s, RTX4090_TESTBED, profile)
            for s in mm.SYSTEMS
        }
        assert sizes["clm"] > sizes["naive"] > sizes["enhanced"] >= sizes["baseline"]


def test_clm_ratio_over_enhanced_baseline(index_cache):
    """§6.2: CLM trains up to ~6x larger models than the enhanced baseline
    on BigCity; require at least 4x in our geometry."""
    scene, index = index_cache("bigcity", 1e-4, 24)
    profile = mm.profile_from_scene(scene, index)
    clm = mm.max_model_size("clm", RTX4090_TESTBED, profile)
    enh = mm.max_model_size("enhanced", RTX4090_TESTBED, profile)
    assert clm / enh > 4.0


def test_max_sizes_track_vram(index_cache):
    """2080 Ti (11 GB) vs 4090 (24 GB): max N scales roughly with VRAM."""
    scene, index = index_cache("bigcity", 1e-4, 24)
    profile = mm.profile_from_scene(scene, index)
    big = mm.max_model_size("clm", RTX4090_TESTBED, profile)
    small = mm.max_model_size("clm", RTX2080TI_TESTBED, profile)
    assert 1.5 < big / small < 3.5


def test_baseline_max_in_paper_band():
    """Figure 8b: GPU-only baseline tops out around 15-17M on the 4090."""
    n = mm.max_model_size("baseline", RTX4090_TESTBED, BIGCITY)
    assert 12e6 < n < 20e6


def test_memory_breakdown_matches_totals():
    parts = mm.memory_breakdown("clm", 10e6, BIGCITY, RTX4090_TESTBED)
    assert parts is not None
    assert parts["total"] == pytest.approx(
        parts["model_states"] + parts["others"]
    )


def test_memory_breakdown_none_on_oom():
    assert mm.memory_breakdown("baseline", 100e6, BIGCITY, RTX4090_TESTBED) is None


def test_fits_boundary_consistent():
    profile = BIGCITY
    n = mm.max_model_size("naive", RTX4090_TESTBED, profile)
    assert mm.fits("naive", n * 0.99, profile, RTX4090_TESTBED)
    assert not mm.fits("naive", n * 1.01, profile, RTX4090_TESTBED)


def test_pinned_memory_formula():
    """Table 6 validation: CLM pins params+grads of the 49 offloaded
    floats; 102.2M Gaussians -> ~40 GB (paper reports 37.8)."""
    assert mm.pinned_memory_bytes("clm", 1) == 2 * 49 * 4
    assert mm.pinned_memory_bytes("naive", 1) == 2 * 59 * 4
    gb = mm.pinned_memory_bytes("clm", 102.2e6) / 1e9
    assert 35 < gb < 45


def test_gpu_only_pins_nothing():
    assert mm.pinned_memory_bytes("baseline", 1e6) == 0.0
    assert mm.pinned_memory_bytes("enhanced", 1e6) == 0.0


def test_pinned_under_host_ram_at_max_size(index_cache):
    """§6.4: even the largest model's pinned footprint stays well under
    host RAM on both testbeds."""
    scene, index = index_cache("bigcity", 1e-4, 24)
    profile = mm.profile_from_scene(scene, index)
    for tb in (RTX4090_TESTBED, RTX2080TI_TESTBED):
        n = mm.max_model_size("clm", tb, profile)
        assert mm.pinned_memory_bytes("clm", n) < 0.5 * tb.cpu.ram_bytes

