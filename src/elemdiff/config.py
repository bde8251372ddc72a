"""Run configuration: the seed and the coefficient bound of random jets."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError

DEFAULT_SEED = 12345
DEFAULT_RANDOM_BOUND = 3


@dataclass(frozen=True)
class RunConfig:
    seed: int = DEFAULT_SEED
    random_bound: int = DEFAULT_RANDOM_BOUND

    def __post_init__(self):
        if self.seed < 0:
            raise PreconditionError("seed must be nonnegative")
        if self.random_bound < 1:
            raise PreconditionError("random bound must be positive")

    # kept only because bench/run.py's environment probe reads it
    def resolved_threads(self) -> int:
        """Always 1: every computation runs serially."""
        return 1
