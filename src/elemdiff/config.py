"""Run configuration: seeding, the modular prime, budgets."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError

DEFAULT_SEED = 12345
DEFAULT_PRIME = (1 << 61) - 1  # Mersenne prime, comfortably above 2^60
DEFAULT_COLUMN_BUDGET = 6000
DEFAULT_RANDOM_BOUND = 3

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; the base set is proving for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class RunConfig:
    seed: int = DEFAULT_SEED
    prime: int = DEFAULT_PRIME
    column_budget: int = DEFAULT_COLUMN_BUDGET
    random_bound: int = DEFAULT_RANDOM_BOUND

    def __post_init__(self):
        if self.prime <= (1 << 60):
            raise PreconditionError("modular prime must exceed 2^60")
        if not is_prime(self.prime):
            raise PreconditionError(f"{self.prime} is not prime")
        if self.seed < 0:
            raise PreconditionError("seed must be nonnegative")
        if self.column_budget < 1:
            raise PreconditionError("column budget must be positive")
        if self.random_bound < 1:
            raise PreconditionError("random bound must be positive")

    def resolved_threads(self) -> int:
        """Always 1: every computation runs serially.  Kept for callers that
        report the thread count of their environment."""
        return 1
