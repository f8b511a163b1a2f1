"""Synthetic approval election samplers.

Three models, named in ``MODELS``: impartial culture, resampling
around a central ballot, and Euclidean proximity.  Each model's
``ballots(rng, n, m)`` draws one ballot per voter; ``sample`` is the
only entry point.  All are deterministic functions of their config
(including the seed); the generator is `random.Random`, i.e. the
Mersenne Twister, which is documented, seedable, and stable across
platforms and Python versions.

Sampled elections carry no committee size; callers attach one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Union

from .core import BallotClass, Election, PavlsError


class SamplerError(PavlsError):
    pass


@dataclass(frozen=True)
class ImpartialCulture:
    """Each voter approves each candidate independently with probability p."""

    p: float

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise SamplerError(f"approval probability must be in [0, 1], got {self.p}")

    def ballots(self, rng: random.Random, n: int, m: int) -> list[frozenset[int]]:
        return [frozenset(c for c in range(m) if rng.random() < self.p) for _ in range(n)]


@dataclass(frozen=True)
class Resampling:
    """A central ballot of size floor(p*m) is drawn uniformly; every voter
    starts from it and each candidate's approval is resampled (kept with
    probability 1-phi, redrawn as Bernoulli(p) with probability phi)."""

    p: float
    phi: float

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise SamplerError(f"approval probability must be in [0, 1], got {self.p}")
        if not 0 <= self.phi <= 1:
            raise SamplerError(f"resampling probability must be in [0, 1], got {self.phi}")

    def ballots(self, rng: random.Random, n: int, m: int) -> list[frozenset[int]]:
        central = set(rng.sample(range(m), int(self.p * m)))
        ballots = []
        for _ in range(n):
            approved = set()
            for c in range(m):
                if rng.random() < self.phi:
                    if rng.random() < self.p:
                        approved.add(c)
                elif c in central:
                    approved.add(c)
            ballots.append(frozenset(approved))
        return ballots


@dataclass(frozen=True)
class Euclidean:
    """Voters and candidates get uniform positions in [0,1]^d; a voter
    approves a candidate iff their distance is strictly below r."""

    d: int
    r: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise SamplerError(f"dimension must be 1 or 2, got {self.d}")
        if not self.r > 0:
            raise SamplerError(f"radius must be positive, got {self.r}")

    def ballots(self, rng: random.Random, n: int, m: int) -> list[frozenset[int]]:
        dims = range(self.d)
        voters = [tuple(rng.random() for _ in dims) for _ in range(n)]
        cands = [tuple(rng.random() for _ in dims) for _ in range(m)]
        return [
            frozenset(c for c, pos in enumerate(cands) if math.dist(v, pos) < self.r)
            for v in voters
        ]


Model = Union[ImpartialCulture, Resampling, Euclidean]
MODELS: dict[str, type] = {"ic": ImpartialCulture, "resampling": Resampling, "euclidean": Euclidean}


@dataclass(frozen=True)
class SamplerConfig:
    model: Model
    n: int
    m: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.model, tuple(MODELS.values())):
            raise SamplerError(f"unknown sampler model: {self.model!r}")
        if self.n < 1 or self.m < 1:
            raise SamplerError(f"need n, m >= 1, got n={self.n}, m={self.m}")


def sample(config: SamplerConfig) -> Election:
    """Draw the config's election: one class per voter, in sampling
    order and never merged, so voter indices are stable."""
    ballots = config.model.ballots(random.Random(config.seed), config.n, config.m)
    return Election(
        tuple(f"c{i}" for i in range(1, config.m + 1)),
        tuple(BallotClass(ballot, 1) for ballot in ballots),
        None,
    )
