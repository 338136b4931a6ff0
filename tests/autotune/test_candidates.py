"""CandidateSpace / TunedConfig unit tests."""

import pytest

from repro.autotune import CandidateSpace, TunedConfig
from repro.core.config import EngineConfig


def test_default_space_shape():
    space = CandidateSpace()
    assert space.size == 3 * 2 * 3
    configs = space.enumerate()
    assert len(configs) == space.size
    assert len(set(configs)) == space.size  # hashable + distinct


def test_enumeration_order_is_deterministic():
    space = CandidateSpace(
        workers=(0, 2), group_sizes=(64, 256), orderings=("tsp",)
    )
    configs = space.enumerate()
    assert configs[0] == TunedConfig(0, 64, "tsp")
    assert configs[1] == TunedConfig(0, 256, "tsp")
    assert configs[2] == TunedConfig(2, 64, "tsp")
    assert configs == space.enumerate()  # stable


def test_random_ordering_rejected():
    with pytest.raises(ValueError, match="random"):
        CandidateSpace(orderings=("tsp", "random"))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": ()},
        {"group_sizes": ()},
        {"orderings": ()},
        {"workers": (-1,)},
        {"group_sizes": (0,)},
    ],
)
def test_invalid_spaces_rejected(kwargs):
    with pytest.raises(ValueError):
        CandidateSpace(**kwargs)


def test_from_engine_config_defaults():
    space = CandidateSpace.from_engine_config(EngineConfig())
    assert space.workers == (0, 1, 2)
    assert space.group_sizes == (64, 256)
    assert space.orderings == ("tsp", "gs_count", "identity")


def test_from_engine_config_explicit_grid():
    cfg = EngineConfig(
        autotune_workers=(0, 4),
        autotune_group_sizes=(128,),
        autotune_orderings=("identity",),
    )
    space = CandidateSpace.from_engine_config(cfg)
    assert space.workers == (0, 4)
    assert space.group_sizes == (128,)
    assert space.orderings == ("identity",)
    assert space.size == 2 * 1 * 1


def test_tuned_config_as_dict_roundtrip():
    config = TunedConfig(2, 128, "gs_count")
    assert config.as_dict() == {
        "overlap_workers": 2,
        "group_size": 128,
        "ordering": "gs_count",
    }
