"""Seeded RNG coercion."""

import numpy as np

from repro.utils.rng import make_rng


def test_int_seed_reproducible():
    a = make_rng(42).integers(0, 1000, 10)
    b = make_rng(42).integers(0, 1000, 10)
    assert np.array_equal(a, b)


def test_generator_passthrough():
    gen = np.random.default_rng(7)
    assert make_rng(gen) is gen


def test_none_gives_generator():
    assert isinstance(make_rng(None), np.random.Generator)
