"""Independent brute-force ground truth for small instances.

Everything here recomputes scores from scratch (never through the
incremental delta path), so agreement with the engine is a genuine
cross-check rather than a tautology.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .core import (
    DomainError,
    Election,
    Epsilon,
    PavlsError,
    Swap,
    check_election,
    check_epsilon,
    pav_score,
    validate_committee,
)


class EnumerationCapError(PavlsError):
    def __init__(self, required: int, cap: int):
        super().__init__(
            f"enumeration needs {required} committees but the cap is {cap}; "
            "raise the cap explicitly to proceed"
        )
        self.required = required
        self.cap = cap


DEFAULT_ENUMERATION_CAP = 10**6


@dataclass
class OracleReport:
    optimum_score: Fraction
    optimum_committees: list[frozenset[int]]
    enumerated: int


def brute_force_optimum(
    election: Election, enumeration_cap: int = DEFAULT_ENUMERATION_CAP
) -> OracleReport:
    """Enumerate all size-k committees; return all maximizers."""
    check_election(election)
    # An exact int: True would pass for a cap of 1.
    if type(enumeration_cap) is not int:
        raise DomainError(f"enumeration cap must be an int, got {enumeration_cap!r}")
    k = election.require_committee_size()
    total = math.comb(election.m, k)
    if total > enumeration_cap:
        raise EnumerationCapError(total, enumeration_cap)
    best_score: Optional[Fraction] = None
    best: list[frozenset[int]] = []
    for combo in itertools.combinations(range(election.m), k):
        score = pav_score(election, combo)
        if best_score is None or score > best_score:
            best_score, best = score, [frozenset(combo)]
        elif score == best_score:
            best.append(frozenset(combo))
    return OracleReport(optimum_score=best_score, optimum_committees=best, enumerated=total)


def is_locally_optimal(
    election: Election, committee: Iterable[int], epsilon: Epsilon
) -> tuple[bool, Optional[Swap], Optional[Fraction]]:
    """Exhaustive scan of all k(m-k) swaps via from-scratch score
    differences; returns (flag, witnessing swap, its gain)."""
    check_epsilon(epsilon)
    members = validate_committee(election, committee)
    base = pav_score(election, members)
    outside = [c for c in range(election.m) if c not in members]
    for a in sorted(members):
        for b in outside:
            gain = pav_score(election, (members - {a}) | {b}) - base
            if gain >= epsilon.value:
                return False, Swap(a, b), gain
    return True, None, None
