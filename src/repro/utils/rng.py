"""Seeded random number generation.

Every stochastic component in the library (scene synthesis, Gaussian
initialization, stochastic local search in the TSP scheduler) accepts either
an integer seed or a ready ``numpy.random.Generator``.  Centralizing the
coercion here keeps experiments reproducible: the same seed always yields the
same scene, the same training order and the same schedule.
"""

from __future__ import annotations

from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing generator returns it unchanged so callers can thread
    one generator through a chain of helpers without reseeding.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
