"""Exact approval elections and incremental PAV scoring.

Every score, score difference, and threshold in this module is a
`fractions.Fraction`.  No floating point enters any scoring path; the
search thresholds used elsewhere (in particular 1/lcm(1..k)) are far
below float resolution for realistic committee sizes.

Voters with identical ballots are stored once as a weighted ballot
class.  This keeps the adversarial instances (whose blocker groups
contain hundreds of thousands of identical voters) small in memory
without changing any score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional, Sequence, Union


class PavlsError(Exception):
    """Base class for errors raised by this package."""


class InvalidCommitteeError(PavlsError):
    pass


class InvalidSwapError(PavlsError):
    pass


class InvalidEpsilonError(PavlsError):
    pass


class InvalidElectionError(PavlsError, ValueError):
    """An election or ballot class that cannot exist (also a ValueError)."""


def harmonic(t: int) -> Fraction:
    """Exact t-th harmonic number 1 + 1/2 + ... + 1/t, with harmonic(0) == 0."""
    if t < 0:
        raise ValueError(f"harmonic() needs t >= 0, got {t}")
    return _harmonic(t)


@lru_cache(maxsize=None)
def _harmonic(t: int) -> Fraction:
    total = Fraction(0)
    for j in range(1, t + 1):
        total += Fraction(1, j)
    return total


def lcm_range(k: int) -> int:
    """Least common multiple of {1, ..., k}."""
    if k < 1:
        raise ValueError(f"lcm_range() needs k >= 1, got {k}")
    return math.lcm(*range(1, k + 1))


class Swap(NamedTuple):
    out_candidate: int
    in_candidate: int


def inverse_sequence(seq: Sequence[Swap]) -> list[Swap]:
    """Reverse the sequence and flip each swap."""
    return [Swap(s.in_candidate, s.out_candidate) for s in reversed(seq)]


@dataclass(frozen=True)
class BallotClass:
    """A set of voters sharing one approval ballot."""

    approves: frozenset[int]
    weight: int

    def __post_init__(self):
        if self.weight < 1:
            raise InvalidElectionError(f"ballot class weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class Election:
    """A weighted approval election with target committee size.

    ``committee_size`` may be None for elections whose committee size is
    attached later (e.g. parsed preference data); scoring operations
    require it to be set.  Elections are frozen, so the cached indexes
    below cannot go stale; :meth:`with_committee_size` returns a new
    election with fresh indexes.
    """

    candidate_names: tuple[str, ...]
    ballot_classes: tuple[BallotClass, ...]
    committee_size: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "candidate_names", tuple(self.candidate_names))
        object.__setattr__(self, "ballot_classes", tuple(self.ballot_classes))
        m = len(self.candidate_names)
        if m < 1:
            raise InvalidElectionError("election needs at least one candidate")
        if len(set(self.candidate_names)) != m:
            raise InvalidElectionError("candidate names must be distinct")
        if not self.ballot_classes:
            raise InvalidElectionError("election needs at least one ballot class")
        for bc in self.ballot_classes:
            bad = [c for c in bc.approves if not 0 <= c < m]
            if bad:
                raise InvalidElectionError(f"ballot entry out of range: {bad[0]} (m={m})")
        k = self.committee_size
        if k is not None and not 1 <= k <= m:
            raise InvalidElectionError(f"committee size {k} not in [1, {m}]")

    @property
    def m(self) -> int:
        return len(self.candidate_names)

    @property
    def n(self) -> int:
        """Total voter count (sum of class weights)."""
        return sum(bc.weight for bc in self.ballot_classes)

    def with_committee_size(self, k: int) -> "Election":
        return replace(self, committee_size=k)

    def require_committee_size(self) -> int:
        if self.committee_size is None:
            raise InvalidCommitteeError("election has no committee size set")
        return self.committee_size

    # Derived indexes below are built once and shared.  A class mask is a
    # Python int whose bit i stands for ballot class i.

    @cached_property
    def approval_sets(self) -> tuple[frozenset[int], ...]:
        return tuple(bc.approves for bc in self.ballot_classes)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(bc.weight for bc in self.ballot_classes)

    @cached_property
    def approval_masks(self) -> tuple[int, ...]:
        """Per candidate, the mask of the ballot classes approving it."""
        # Row c spells candidate c's mask as binary digits, most
        # significant (last) class first; one int() call per row is
        # faster than setting the bits one at a time.
        last = len(self.ballot_classes) - 1
        rows = [bytearray(b"0") * (last + 1) for _ in range(self.m)]
        one = ord("1")
        for ci, approves in enumerate(self.approval_sets):
            for c in approves:
                rows[c][last - ci] = one
        return tuple(int(row, 2) for row in rows)

    @cached_property
    def weight_masks(self) -> tuple[tuple[int, int], ...]:
        """One (weight, mask of the classes with that weight) pair per
        distinct class weight."""
        groups: dict[int, int] = {}
        for ci, w in enumerate(self.weights):
            groups[w] = groups.get(w, 0) | 1 << ci
        return tuple(groups.items())

    @cached_property
    def _delta_scale(self) -> tuple[int, tuple[int, ...]]:
        # Common denominator for all per-voter delta terms.  Hit counts
        # during a swap stay in [1, k]; slot k+1 is only ever read for
        # level k, whose gain count is always zero.
        k = self.require_committee_size()
        scale = math.lcm(*range(1, k + 2))
        table = (0,) + tuple(scale // d for d in range(1, k + 2))
        return scale, table

    @cached_property
    def zero_plus_lcm(self) -> int:
        return lcm_range(self.require_committee_size())


def validate_committee(election: Election, committee: Iterable[int]) -> frozenset[int]:
    members = frozenset(committee)
    k = election.require_committee_size()
    if len(members) != k:
        raise InvalidCommitteeError(f"committee has {len(members)} members, expected {k}")
    bad = [c for c in members if not 0 <= c < election.m]
    if bad:
        raise InvalidCommitteeError(f"committee member out of range: {bad[0]}")
    return members


@dataclass(frozen=True)
class Epsilon:
    """Swap-acceptance threshold, always a positive exact rational."""

    kind: str  # "threshold" | "zero-plus" | "custom"
    value: Fraction

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError(f"epsilon must be positive, got {self.value}")

    @staticmethod
    def threshold(election: Election) -> "Epsilon":
        """n/k^2, the polynomial-runtime threshold."""
        k = election.require_committee_size()
        return Epsilon("threshold", Fraction(election.n, k * k))

    @staticmethod
    def zero_plus(k: int) -> "Epsilon":
        """1/lcm(1..k): with this threshold, "delta >= eps" coincides with
        "delta > 0" (a quantization fact asserted at runtime, see
        :func:`assert_quantized`)."""
        return Epsilon("zero-plus", Fraction(1, lcm_range(k)))

    @staticmethod
    def custom(value: Fraction) -> "Epsilon":
        return Epsilon("custom", Fraction(value))

    @staticmethod
    def check_selector(selector: Union[str, Fraction]) -> Union[str, Fraction]:
        """Check an epsilon selector and normalise it.

        A selector is ``"zero-plus"`` (1/lcm(1..k)), ``"threshold"``
        (n/k^2), or a positive rational given as a number or a string
        such as ``"28/3"``, which is returned as a Fraction.
        """
        if selector in ("zero-plus", "threshold"):
            return selector
        try:
            return Epsilon.custom(selector).value
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidEpsilonError(
                f"epsilon must be zero-plus, threshold or a positive fraction, got {selector!r}"
            ) from None

    @staticmethod
    def resolve(selector: Union[str, Fraction], election: Election) -> "Epsilon":
        """The threshold a selector (see :meth:`check_selector`) names on ``election``."""
        selector = Epsilon.check_selector(selector)
        if selector == "zero-plus":
            return Epsilon.zero_plus(election.require_committee_size())
        if selector == "threshold":
            return Epsilon.threshold(election)
        return Epsilon.custom(selector)


class SatisfactionState:
    """Mutable per-run cache: committee plus the ballot classes grouped by
    how many committee members they approve.

    ``levels`` maps each occupied hit count h to the mask of the classes
    approving exactly h committee members; the masks are disjoint and
    together cover every class.  Owned by exactly one run at a time;
    concurrent runs over the same election each build their own state.
    """

    __slots__ = ("election", "committee", "levels")

    def __init__(self, election: Election, committee: Iterable[int]):
        members = validate_committee(election, committee)
        self.election = election
        self.committee = set(members)
        levels = {0: (1 << len(election.ballot_classes)) - 1}
        masks = election.approval_masks
        for c in members:
            levels = _move(levels, 0, masks[c])
        self.levels = levels

    def score(self) -> Fraction:
        weight_masks = self.election.weight_masks
        total = Fraction(0)
        for h, mask in self.levels.items():
            if h:
                voters = sum(w * (mask & group).bit_count() for w, group in weight_masks)
                total += voters * _harmonic(h)
        return total


def _move(levels: dict[int, int], down: int, up: int) -> dict[int, int]:
    """The levels after the classes in ``down`` lose one hit and those in
    ``up`` gain one (``down`` and ``up`` are disjoint)."""
    keep = ~(down | up)
    moved: dict[int, int] = {}
    get = moved.get
    for h, mask in levels.items():
        part = mask & keep
        if part:
            moved[h] = get(h, 0) | part
        part = mask & down
        if part:
            moved[h - 1] = get(h - 1, 0) | part
        part = mask & up
        if part:
            moved[h + 1] = get(h + 1, 0) | part
    return moved


def pav_score(election: Election, committee: Iterable[int]) -> Fraction:
    """PAV score of a committee: sum of weight * harmonic(|ballot & W|)."""
    members = validate_committee(election, committee)
    total = Fraction(0)
    for bc in election.ballot_classes:
        h = len(bc.approves & members)
        if h:
            total += bc.weight * _harmonic(h)
    return total


def check_swap(state: SatisfactionState, a: int, b: int) -> None:
    """Raise :class:`InvalidSwapError` unless ``a`` is seated and ``b`` is
    a candidate outside the committee."""
    if a not in state.committee:
        raise InvalidSwapError(f"outgoing candidate {a} not in committee")
    if b in state.committee or not 0 <= b < state.election.m:
        raise InvalidSwapError(f"incoming candidate {b} invalid for committee")


def delta(election: Election, state: SatisfactionState, a: int, b: int) -> Fraction:
    """Exact PAV-score change of swapping committee member ``a`` for ``b``.

    Only ballot classes approving exactly one of {a, b} count: a class
    at level h approving b but not a gains 1/(h+1) per voter, one
    approving a but not b loses 1/h per voter.  Both sets are masks, so
    each (weight group, level) pair costs two popcounts; a weight group
    with no such class, like the heavyweight blocker groups of the
    hardened instances on most swaps, costs nothing.
    """
    check_swap(state, a, b)
    masks = election.approval_masks
    gain = masks[b] & ~masks[a]
    loss = masks[a] & ~masks[b]
    scale, table = election._delta_scale
    levels = state.levels.items()
    num = 0
    for weight, group in election.weight_masks:
        g = gain & group
        l = loss & group
        if g or l:
            acc = 0
            for h, mask in levels:
                acc += (g & mask).bit_count() * table[h + 1] - (l & mask).bit_count() * table[h]
            num += weight * acc
    return Fraction(num, scale)


def apply_swap(state: SatisfactionState, swap: Swap) -> SatisfactionState:
    """Apply a swap in place; the state is untouched if the swap is invalid."""
    a, b = swap
    check_swap(state, a, b)
    masks = state.election.approval_masks
    state.levels = _move(state.levels, masks[a] & ~masks[b], masks[b] & ~masks[a])
    state.committee.discard(a)
    state.committee.add(b)
    return state


def assert_quantized(election: Election, value: Fraction) -> None:
    """Check the quantization fact backing the 0+ threshold.

    Any delta of a valid swap is an integer multiple of 1/lcm(1..k):
    loss terms have denominators in [1, k], and a gain denominator of
    k+1 would need a voter approving all of W plus the incoming
    candidate but not the outgoing one, which is contradictory.  The
    argument is asserted here on every value rather than assumed.
    """
    if election.zero_plus_lcm % value.denominator != 0:
        raise PavlsError(
            f"delta {value} is not a multiple of 1/lcm(1..k); "
            "zero-plus threshold assumption violated"
        )


@dataclass
class SequenceCertificate:
    """Replay report for a swap sequence from a start committee."""

    structurally_valid: bool
    first_invalid_step: Optional[int]
    step_deltas: list[Fraction]
    certified_good: bool
    total_gain: Fraction
    final_committee: frozenset[int]
    epsilon: Fraction

    @property
    def steps(self) -> int:
        return len(self.step_deltas)


def validate_sequence(
    election: Election,
    start: Iterable[int],
    seq: Iterable[Swap],
    epsilon: Epsilon,
) -> SequenceCertificate:
    """Replay ``seq`` from ``start``; certify it good iff every step has
    delta >= epsilon.

    A structurally invalid swap (see :func:`check_swap`) stops the
    replay and is reported by index; a step with delta < epsilon is a
    certification outcome, not an error.
    """
    state = SatisfactionState(election, start)
    check_quantized = epsilon.kind == "zero-plus"
    deltas: list[Fraction] = []
    first_invalid: Optional[int] = None
    for idx, swap in enumerate(seq):
        try:
            d = delta(election, state, *swap)
        except InvalidSwapError:
            first_invalid = idx
            break
        if check_quantized:
            assert_quantized(election, d)
        deltas.append(d)
        apply_swap(state, swap)
    valid = first_invalid is None
    return SequenceCertificate(
        structurally_valid=valid,
        first_invalid_step=first_invalid,
        step_deltas=deltas,
        certified_good=valid and all(d >= epsilon.value for d in deltas),
        total_gain=sum(deltas, Fraction(0)),
        final_committee=frozenset(state.committee),
        epsilon=epsilon.value,
    )
