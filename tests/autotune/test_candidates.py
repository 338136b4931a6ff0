"""CandidateSpace / TunedConfig unit tests."""

import pytest

from repro.autotune import CandidateSpace, TunedConfig
from repro.core.config import EngineConfig


def test_default_space_shape():
    space = CandidateSpace()
    assert space.size == 3 * 3
    configs = space.enumerate()
    assert len(configs) == space.size
    assert len(set(configs)) == space.size  # hashable + distinct


def test_enumeration_order_is_deterministic():
    space = CandidateSpace(workers=(0, 2), orderings=("tsp", "identity"))
    configs = space.enumerate()
    assert configs[0] == TunedConfig(0, "tsp")
    assert configs[1] == TunedConfig(0, "identity")
    assert configs[2] == TunedConfig(2, "tsp")
    assert configs == space.enumerate()  # stable


def test_random_ordering_rejected():
    with pytest.raises(ValueError, match="random"):
        CandidateSpace(orderings=("tsp", "random"))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"workers": ()},
        {"orderings": ()},
        {"workers": (-1,)},
    ],
)
def test_invalid_spaces_rejected(kwargs):
    with pytest.raises(ValueError):
        CandidateSpace(**kwargs)


def test_from_engine_config_defaults():
    space = CandidateSpace.from_engine_config(EngineConfig())
    assert space.workers == (0, 1, 2)
    assert space.orderings == ("tsp", "gs_count", "identity")


def test_from_engine_config_explicit_grid():
    cfg = EngineConfig(
        autotune_workers=(0, 4),
        autotune_orderings=("identity",),
    )
    space = CandidateSpace.from_engine_config(cfg)
    assert space.workers == (0, 4)
    assert space.orderings == ("identity",)
    assert space.size == 2 * 1


def test_tuned_config_as_dict_roundtrip():
    config = TunedConfig(2, "gs_count")
    assert config.as_dict() == {"overlap_workers": 2, "ordering": "gs_count"}
