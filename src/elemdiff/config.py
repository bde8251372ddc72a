"""Run configuration: the seed and the coefficient bound of random jets."""

from __future__ import annotations

from .errors import PreconditionError, ReadOnly

DEFAULT_SEED = 12345
DEFAULT_RANDOM_BOUND = 3


class RunConfig(ReadOnly):
    __slots__ = ("seed", "random_bound")

    def __init__(self, seed: int = DEFAULT_SEED, random_bound: int = DEFAULT_RANDOM_BOUND):
        if seed < 0:
            raise PreconditionError("seed must be nonnegative")
        if random_bound < 1:
            raise PreconditionError("random bound must be positive")
        object.__setattr__(self, "seed", seed)
        object.__setattr__(self, "random_bound", random_bound)

    # kept only because bench/run.py's environment probe reads it
    def resolved_threads(self) -> int:
        """Always 1: every computation runs serially."""
        return 1
