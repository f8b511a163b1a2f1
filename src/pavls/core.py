"""Exact approval elections and incremental PAV scoring.

Every score, score difference, and threshold in this module is a
`fractions.Fraction`.  No floating point enters any scoring path; the
search thresholds used elsewhere (in particular 1/lcm(1..k)) are far
below float resolution for realistic committee sizes.

Voters with identical ballots are stored once as a weighted ballot
class.  This keeps the adversarial instances (whose blocker groups
contain hundreds of thousands of identical voters) small in memory
without changing any score.  Classes with equal ballots (the layered
constructions repeat one ballot across many voter groups) may share one
frozenset: the layered builders and ``parse_native`` make them do so,
which is safe because frozensets are immutable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Optional, Union


class PavlsError(Exception):
    """Base class for errors raised by this package."""


class InvalidCommitteeError(PavlsError):
    pass


class InvalidSwapError(PavlsError):
    pass


class InvalidEpsilonError(PavlsError, ValueError):
    """A threshold that is not a positive rational (also a ValueError)."""


class InvalidElectionError(PavlsError, ValueError):
    """An election or ballot class that cannot exist (also a ValueError)."""


class DomainError(PavlsError, ValueError):
    """An argument outside a numeric function's domain (also a ValueError)."""


def harmonic(t: int) -> Fraction:
    """Exact t-th harmonic number 1 + 1/2 + ... + 1/t, with harmonic(0) == 0."""
    if type(t) is not int or t < 0:
        raise DomainError(f"harmonic() needs an int t >= 0, got {t!r}")
    return _harmonic(t)


@lru_cache(maxsize=None)
def _harmonic(t: int) -> Fraction:
    total = Fraction(0)
    for j in range(1, t + 1):
        total += Fraction(1, j)
    return total


def lcm_range(k: int) -> int:
    """Least common multiple of {1, ..., k}."""
    if type(k) is not int or k < 1:
        raise DomainError(f"lcm_range() needs an int k >= 1, got {k!r}")
    return math.lcm(*range(1, k + 1))


class Swap(NamedTuple):
    out_candidate: int
    in_candidate: int


def _iter_swaps(seq: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """An iterator over ``seq``; :class:`InvalidSwapError` if it is not iterable."""
    try:
        return iter(seq)
    except TypeError:
        raise InvalidSwapError(f"swap sequence must be iterable, got {seq!r}") from None


def inverse_sequence(seq: Iterable[tuple[int, int]]) -> list[Swap]:
    """Reverse the sequence and flip each swap; a step may be any pair.

    A ``seq`` that is not iterable, or a step that is not a pair, raises
    :class:`InvalidSwapError`."""
    inverse = []
    for step in reversed(list(_iter_swaps(seq))):
        try:
            a, b = step
        except (TypeError, ValueError):
            raise InvalidSwapError(f"swap {step!r} is not a pair") from None
        inverse.append(Swap(b, a))
    return inverse


@dataclass(frozen=True)
class BallotClass:
    """A set of voters sharing one approval ballot.

    Classes with equal ballots may share one ``approves`` frozenset, as
    the layered builders and ``parse_native`` make them do.
    """

    approves: frozenset[int]
    weight: int

    def __post_init__(self):
        if not isinstance(self.approves, frozenset):
            raise InvalidElectionError(
                f"ballot class approvals must be a frozenset, got {type(self.approves).__name__}"
            )
        if type(self.weight) is not int or self.weight < 1:
            raise InvalidElectionError(
                f"ballot class weight must be a positive int, got {self.weight!r}"
            )


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
        try:
            names, classes = tuple(self.candidate_names), tuple(self.ballot_classes)
            distinct = len(set(names))
        except TypeError:  # not iterable, or an unhashable name
            raise InvalidElectionError(
                "candidate names and ballot classes must be iterables, the names hashable"
            ) from None
        object.__setattr__(self, "candidate_names", names)
        object.__setattr__(self, "ballot_classes", classes)
        m = len(names)
        if m < 1:
            raise InvalidElectionError("election needs at least one candidate")
        if distinct != m:
            raise InvalidElectionError("candidate names must be distinct")
        if not classes:
            raise InvalidElectionError("election needs at least one ballot class")
        # Classes are exact BallotClasses, and candidates exact ints (a
        # bool would pass for candidate 0 or 1); each check runs over all
        # classes or entries at once, in C.
        types = set(map(type, classes)) - {BallotClass}
        if types:
            name = types.pop().__name__
            raise InvalidElectionError(f"ballot classes must be BallotClasses, got a {name}")
        # Once per distinct approval object, in first-occurrence order:
        # classes with equal ballots may share one frozenset, and a
        # repeat adds nothing to the type set or the union.
        approves = {id(bc.approves): bc.approves for bc in classes}.values()
        types = set(map(type, chain.from_iterable(approves))) - {int}
        if types:
            raise InvalidElectionError(f"ballot entries must be ints, got a {types.pop().__name__}")
        bad = [c for c in frozenset().union(*approves) if not 0 <= c < m]
        if bad:
            raise InvalidElectionError(f"ballot entry out of range: {bad[0]} (m={m})")
        self._check_committee_size(self.committee_size)

    def _check_committee_size(self, k: Optional[int]) -> None:
        m = len(self.candidate_names)
        if k is not None and (type(k) is not int or not 1 <= k <= m):
            raise InvalidElectionError(f"committee size {k!r} not an int in [1, {m}]")

    @property
    def m(self) -> int:
        return len(self.candidate_names)

    @property
    def n(self) -> int:
        """Total voter count (sum of class weights)."""
        return sum(bc.weight for bc in self.ballot_classes)

    def with_committee_size(self, k: int) -> "Election":
        """This election with committee size ``k`` and no cached index.

        Only ``k`` is checked: the frozen names and ballot classes were
        validated when this election was built."""
        self._check_committee_size(k)
        other = object.__new__(Election)
        object.__setattr__(other, "candidate_names", self.candidate_names)
        object.__setattr__(other, "ballot_classes", self.ballot_classes)
        object.__setattr__(other, "committee_size", k)
        return other

    def require_committee_size(self) -> int:
        if self.committee_size is None:
            raise InvalidCommitteeError("election has no committee size set")
        return self.committee_size

    # Derived indexes below are built once and shared.  A class mask is a
    # Python int whose bit i stands for ballot class i.

    @cached_property
    def approval_masks(self) -> tuple[int, ...]:
        """Per candidate, the mask of the ballot classes approving it."""
        # Row c spells candidate c's mask as binary digits, most
        # significant (last) class first; one int() call per row is
        # faster than setting the bits one at a time.
        last = len(self.ballot_classes) - 1
        rows = [bytearray(b"0") * (last + 1) for _ in range(self.m)]
        one = ord("1")
        for ci, bc in enumerate(self.ballot_classes):
            for c in bc.approves:
                rows[c][last - ci] = one
        return tuple(int(row, 2) for row in rows)

    @cached_property
    def weight_masks(self) -> tuple[tuple[int, int], ...]:
        """One (weight, mask of the classes with that weight) pair per
        distinct class weight."""
        groups: dict[int, int] = {}
        for ci, bc in enumerate(self.ballot_classes):
            groups[bc.weight] = groups.get(bc.weight, 0) | 1 << ci
        return tuple(groups.items())

    @property
    def _cell_stride(self) -> int:
        # A state cell's key is g * stride + h for weight group g (its index
        # in weight_masks) and hit count h.  Hit counts stay in [0, k]; the
        # spare slot k+1 keeps neighbouring groups' bands apart.
        return self.require_committee_size() + 2

    @cached_property
    def _cell_coefficients(self) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """(scale, up, down): per cell key g * stride + h, a voter of group
        g at h hits gains up[key] / scale by one more hit and loses
        down[key] / scale by one fewer (w_g/(h+1) and w_g/h, 0 at h = 0)."""
        # scale = lcm(1..k+1) makes every coefficient an integer; the
        # spare slot h = k+1 is never occupied, so its values are never read.
        k = self.require_committee_size()
        scale = lcm_range(k + 1)
        per_voter = [scale // d for d in range(1, k + 2)]
        up: list[int] = []
        down: list[int] = []
        for weight, _ in self.weight_masks:
            up += [weight * t for t in per_voter] + [0]
            down += [0] + [weight * t for t in per_voter]
        return scale, tuple(up), tuple(down)

    @cached_property
    def zero_plus_lcm(self) -> int:
        return lcm_range(self.require_committee_size())


def check_election(election: Election) -> None:
    """Raise :class:`InvalidElectionError` unless ``election`` is an
    :class:`Election`."""
    if not isinstance(election, Election):
        raise InvalidElectionError(f"not an Election: a {type(election).__name__}")


def validate_committee(election: Election, committee: Iterable[int]) -> frozenset[int]:
    check_election(election)
    try:
        listed = list(committee)
        members = frozenset(listed)
    except TypeError:  # not iterable, or holds an unhashable member
        raise InvalidCommitteeError(
            f"committee must be an iterable of ints, got {committee!r}"
        ) from None
    k = election.require_committee_size()
    # Members are exact ints: a float or a string would fail deep in the
    # engine, and True would pass for candidate 1.
    bad = [c for c in listed if type(c) is not int]
    if bad:
        raise InvalidCommitteeError(f"committee members must be ints, got {bad[0]!r}")
    # A repeat would vanish in the set: [0, 0, 1] would pass for {0, 1}.
    if len(members) < len(listed):
        repeated = next(c for c, count in Counter(listed).items() if count > 1)
        raise InvalidCommitteeError(f"committee lists member {repeated} twice")
    if len(members) != k:
        raise InvalidCommitteeError(f"committee has {len(members)} members, expected {k}")
    bad = [c for c in members if not 0 <= c < election.m]
    if bad:
        raise InvalidCommitteeError(f"committee member out of range: {bad[0]}")
    return members


@dataclass(frozen=True)
class Epsilon:
    """Swap-acceptance threshold, always a positive exact rational."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction) or self.value <= 0:
            raise InvalidEpsilonError(f"epsilon must be a positive Fraction, got {self.value!r}")

    @staticmethod
    def threshold(election: Election) -> "Epsilon":
        """n/k^2, the polynomial-runtime threshold."""
        check_election(election)
        k = election.require_committee_size()
        return Epsilon(Fraction(election.n, k * k))

    @staticmethod
    def zero_plus(k: int) -> "Epsilon":
        """1/lcm(1..k): with this threshold, "delta >= eps" coincides with
        "delta > 0" (every delta is a multiple of it, as
        :func:`assert_quantized` checks at runtime)."""
        if type(k) is not int or k < 1:
            raise InvalidEpsilonError(f"zero-plus epsilon needs an int k >= 1, got {k!r}")
        return Epsilon(Fraction(1, lcm_range(k)))

    @staticmethod
    def custom(value: Union[int, Fraction, str]) -> "Epsilon":
        """A threshold given as an int, a Fraction or a string such as
        ``"28/3"``.  Floats and bools are refused rather than converted:
        ``Fraction(0.1)`` is not 1/10."""
        if type(value) is not int and not isinstance(value, (Fraction, str)):
            raise InvalidEpsilonError(
                f"epsilon must be an int, a Fraction or a string, got {value!r}"
            )
        try:
            value = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise InvalidEpsilonError(f"epsilon must be a fraction, got {value!r}") from None
        return Epsilon(value)

    @staticmethod
    def check_selector(selector: Union[str, int, Fraction]) -> Union[str, Fraction]:
        """Check an epsilon selector and normalise it.

        A selector is ``"zero-plus"`` (1/lcm(1..k)), ``"threshold"``
        (n/k^2), or a positive rational accepted by :meth:`custom`, which
        is returned as a Fraction.
        """
        if selector in ("zero-plus", "threshold"):
            return selector
        try:
            return Epsilon.custom(selector).value
        except InvalidEpsilonError:
            raise InvalidEpsilonError(
                f"epsilon must be zero-plus, threshold or a positive fraction, got {selector!r}"
            ) from None

    @staticmethod
    def resolve(selector: Union[str, int, Fraction], election: Election) -> "Epsilon":
        """The threshold a selector (see :meth:`check_selector`) names on ``election``."""
        check_election(election)
        selector = Epsilon.check_selector(selector)
        if selector == "zero-plus":
            return Epsilon.zero_plus(election.require_committee_size())
        if selector == "threshold":
            return Epsilon.threshold(election)
        return Epsilon(selector)


def check_epsilon(epsilon: Epsilon) -> None:
    """Raise :class:`InvalidEpsilonError` unless ``epsilon`` is an
    :class:`Epsilon` (a bare Fraction, string or number is refused; see
    :meth:`Epsilon.resolve`)."""
    if not isinstance(epsilon, Epsilon):
        raise InvalidEpsilonError(f"threshold must be an Epsilon, got {epsilon!r}")


class SatisfactionState:
    """Mutable per-run cache: committee plus the ballot classes grouped by
    weight and by how many committee members they approve.

    ``cells`` maps each occupied cell key g * stride + h (see
    ``Election._cell_stride``) to the mask of the classes of weight group
    g approving exactly h committee members; the masks are disjoint and
    together cover every class.

    ``values`` maps each delta numerator (on the scale of
    ``Election._cell_coefficients``) that :func:`delta` has returned to
    its Fraction, so equal deltas are one object and each distinct value
    is built once.  ``__init__`` creates it empty and nothing resets it,
    so a replay's table holds exactly its distinct step values.

    ``delta_evals`` counts the pairs that the pickers' scans of this
    state evaluated exactly (see :class:`_Scan`); it starts at 0.  Owned
    by exactly one run at a time; concurrent runs over the same election
    each build their own state.
    """

    __slots__ = ("election", "committee", "cells", "values", "delta_evals")

    def __init__(self, election: Election, committee: Iterable[int]):
        members = validate_committee(election, committee)
        self.election = election
        self.committee = set(members)
        stride = election._cell_stride
        cells = {g * stride: group for g, (_, group) in enumerate(election.weight_masks)}
        masks = election.approval_masks
        for c in members:
            cells = _move(cells, 0, masks[c])
        self.cells = cells
        self.values: dict[int, Fraction] = {}
        self.delta_evals = 0


class _Scan(dict):
    """One picker scan of a state's committee: the ``cells`` it scans and
    the sums :func:`delta` fills lazily, keyed by candidate (each
    incoming candidate's gain sum, each outgoing member's loss sum, loss
    bound and approver parts).

    ``floor`` is the numerator below which the picker rejects a pair, or
    None; the picker may raise it between calls.  ``evals`` counts the
    pairs :func:`delta` evaluated exactly, those it did not refute."""

    __slots__ = ("cells", "floor", "evals")

    def __init__(self, cells: dict[int, int], floor: Optional[int] = None):
        self.cells = cells
        self.floor = floor
        self.evals = 0


def _move(cells: dict[int, int], down: int, up: int) -> dict[int, int]:
    """The cells after the classes in ``down`` lose one hit and those in
    ``up`` gain one (``down`` and ``up`` are disjoint).  A cell holding
    none of them is carried over whole."""
    moving = down | up
    moved: dict[int, int] = {}
    get = moved.get
    for key, mask in cells.items():
        hit = mask & moving
        if not hit:
            moved[key] = get(key, 0) | mask
            continue
        part = mask ^ hit
        if part:
            moved[key] = get(key, 0) | part
        part = hit & down
        if part:
            moved[key - 1] = get(key - 1, 0) | part
        part = hit & up
        if part:
            moved[key + 1] = get(key + 1, 0) | part
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


def check_state(election: Election, state: SatisfactionState) -> None:
    """Raise :class:`PavlsError` unless ``state`` is a
    :class:`SatisfactionState` built for ``election`` or an equal one."""
    own = state.election if isinstance(state, SatisfactionState) else None
    if own is None or own is not election and own != election:
        raise PavlsError(f"not a SatisfactionState of this election: a {type(state).__name__}")


def _need(election: Election, state: SatisfactionState, epsilon: Epsilon) -> tuple[int, int]:
    """(scale, need) for a scan or replay of ``state``, after checking the
    threshold and the state: delta numerators are on the common scale
    lcm(1..k+1), and a numerator reaches epsilon iff it is at least
    need = ceil(epsilon * scale)."""
    check_epsilon(epsilon)
    check_state(election, state)
    scale = election._cell_coefficients[0]
    return scale, math.ceil(epsilon.value * scale)


def check_swap(state: SatisfactionState, a: int, b: int) -> None:
    """Raise :class:`InvalidSwapError` unless ``a`` and ``b`` are exact ints
    (not bools), ``a`` is seated and ``b`` is a candidate outside the
    committee of ``state`` (a :class:`SatisfactionState`)."""
    if type(a) is not int or type(b) is not int:
        raise InvalidSwapError(f"swap ({a!r}, {b!r}) is not a pair of ints")
    if a not in state.committee:
        raise InvalidSwapError(f"outgoing candidate {a} not in committee")
    # len() rather than Election.m: this runs at every replayed step.
    if b in state.committee or not 0 <= b < len(state.election.candidate_names):
        raise InvalidSwapError(f"incoming candidate {b} invalid for committee")


def delta(
    election: Election, state: SatisfactionState, a: int, b: int
) -> Fraction | int | None:
    """Exact PAV-score change of swapping committee member ``a`` for ``b``.

    Only ballot classes approving exactly one of {a, b} count: a class
    of weight w at h hits approving b but not a gains w/(h+1), one
    approving a but not b loses w/h.  Both sets are masks, built
    without negative ints, so each occupied (weight group, hit count)
    cell holding some of them costs two popcounts and two multiplies by
    cached integer coefficients, and a cell holding none is skipped.  A
    replay evaluates one pair per state, where scan sums would cost more
    than they save.  Every argument is checked (:func:`check_state`, then
    :func:`check_swap`), and the result is the Fraction interned in
    ``state.values`` (see :class:`SatisfactionState`), built once per
    distinct value.

    A picker's scan passes its own ``_Scan`` for ``state`` instead; only
    then is nothing checked, since the picker checked the state and
    passes only pairs of its committee.  The same value is then

        G[b] - L[a] + sum over the classes approving a and b of w/(h(h+1)),

    with G[b] = sum over b's approvers of w/(h+1) and L[a] = sum over
    a's approvers of w/h read from the scan's sums, so a pair costs one
    popcount per cell holding some of a's approvers, and it is returned
    as an int: its numerator on the scale of
    ``Election._cell_coefficients``, lcm(1..k+1).  Since w/h - w/(h(h+1))
    = w/(h+1), that value is at most G[b] - L'[a], with L'[a] = sum over
    a's approvers of w/(h+1).  If the scan has a ``floor`` and this
    bound is below it, the pair is refuted without its exact value and
    the result is None, which is never a value: the exact numerator is
    below the floor too.
    """
    if type(state) is _Scan:
        gain = state.get(b)
        if gain is None:
            mask_b = election.approval_masks[b]
            up = election._cell_coefficients[1]
            gain = state[b] = sum(
                (mask_b & mask).bit_count() * up[key] for key, mask in state.cells.items()
            )
        outgoing = state.get(a)
        if outgoing is None:
            # L[a], L'[a], and each non-empty part of a cell approving a
            # with its coefficient w/(h(h+1)) = w/h - w/(h+1), positive
            # since h >= 1.
            mask_a = election.approval_masks[a]
            _, up, down = election._cell_coefficients
            loss, bound, parts = 0, 0, []
            for key, mask in state.cells.items():
                part = mask_a & mask
                if part:
                    count = part.bit_count()
                    loss += count * down[key]
                    bound += count * up[key]
                    parts.append((part, down[key] - up[key]))
            outgoing = state[a] = loss, bound, parts
        loss, bound, parts = outgoing
        floor = state.floor
        if floor is not None and gain - bound < floor:
            return None
        mask_b = election.approval_masks[b]
        num = gain - loss
        for part, coefficient in parts:
            num += (part & mask_b).bit_count() * coefficient
        state.evals += 1
        return num
    check_state(election, state)
    check_swap(state, a, b)
    masks = election.approval_masks
    scale, up, down = election._cell_coefficients
    both = masks[a] & masks[b]
    gain = masks[b] ^ both
    loss = masks[a] ^ both
    moving = gain | loss
    num = 0
    for key, mask in state.cells.items():
        if mask & moving:
            num += (gain & mask).bit_count() * up[key] - (loss & mask).bit_count() * down[key]
    # Fraction(0) is falsy, so test for a missing entry with "is None".
    values = state.values
    value = values.get(num)
    if value is None:
        value = values[num] = Fraction(num, scale)
    return value


def apply_swap(state: SatisfactionState, swap: Swap) -> SatisfactionState:
    """Apply a swap in place; the state is untouched if the swap is invalid."""
    try:
        a, b = swap
    except (TypeError, ValueError):
        raise InvalidSwapError(f"swap {swap!r} is not a pair") from None
    if not isinstance(state, SatisfactionState):
        raise PavlsError(f"not a SatisfactionState: a {type(state).__name__}")
    check_swap(state, a, b)
    masks = state.election.approval_masks
    both = masks[a] & masks[b]
    state.cells = _move(state.cells, masks[a] ^ both, masks[b] ^ both)
    state.committee.discard(a)
    state.committee.add(b)
    return state


def assert_quantized(election: Election, value: Fraction) -> None:
    """Check the quantization fact backing the 0+ threshold.

    Any delta of a valid swap is an integer multiple of 1/lcm(1..k):
    loss terms have denominators in [1, k], and a gain denominator of
    k+1 would need a voter approving all of W plus the incoming
    candidate but not the outgoing one, which is contradictory.  The
    argument is asserted here on every value rather than assumed,
    whatever the threshold: under 1/lcm(1..k) it makes "delta >= eps"
    coincide with "delta > 0".
    """
    if election.zero_plus_lcm % value.denominator != 0:
        raise PavlsError(
            f"delta {value} is not a multiple of 1/lcm(1..k); "
            "quantization fact violated"
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

    A structurally invalid swap (not a pair of ints, or see
    :func:`check_swap`) stops the replay and is reported by index; a
    step with delta < epsilon is a certification outcome, not an error.
    A ``seq`` that is not iterable raises :class:`InvalidSwapError`.
    """
    check_epsilon(epsilon)
    state = SatisfactionState(election, start)
    deltas: list[Fraction] = []
    first_invalid: Optional[int] = None
    for idx, swap in enumerate(_iter_swaps(seq)):
        # A step that is not a pair is as invalid as one whose candidates
        # do not fit the committee: delta's check_swap refuses (None, None).
        try:
            a, b = swap
        except (TypeError, ValueError):
            a = b = None
        try:
            deltas.append(delta(election, state, a, b))
        except InvalidSwapError:
            first_invalid = idx
            break
        apply_swap(state, (a, b))
    valid = first_invalid is None
    # delta interns the step values, so the steps hold few distinct
    # objects: each is checked and put on the common scale once, and the
    # sum and the minimum are taken in ints (every delta's denominator
    # divides the scale); the minimum takes the pickers' integer test.
    scale, need = _need(election, state, epsilon)
    nums = {id(d): d for d in deltas}
    for key, d in nums.items():
        assert_quantized(election, d)
        nums[key] = d.numerator * (scale // d.denominator)
    good = not nums or min(nums.values()) >= need
    return SequenceCertificate(
        structurally_valid=valid,
        first_invalid_step=first_invalid,
        step_deltas=deltas,
        certified_good=valid and good,
        total_gain=Fraction(sum(map(nums.__getitem__, map(id, deltas))), scale),
        final_committee=frozenset(state.committee),
        epsilon=epsilon.value,
    )
