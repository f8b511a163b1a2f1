"""Adversarial election families and their improving-swap sequences.

Four instance families live here, in increasing order of machinery:

* the warm-up family, on which a quadratic-length sequence of swaps
  each gains at least n/k^2;
* the atomic family ``f``/``e`` whose pivotal swap gains exactly
  delta_formula(j, k), a quantity that can be driven down to
  1/k^(log k) with polynomially many voters;
* the chained family ``e_t`` (t copies of ``e`` sharing a candidate
  chain), responsible for up-and-down sweeps along one column;
* the layered election (one ``e_t`` column per level, with each
  column's direction flags rewired to the parity classes of the next
  column), on which the recursive sweep sequence has super-polynomial
  length, and its hardened variant (heavyweight blocker groups plus a
  fixed candidate order) on which lexicographic better response is
  forced through a still-super-polynomial shortcut sequence.

All generators return a :class:`LabeledElection` whose label maps give
by-name access to candidates and voter groups.  One private ``_build``
freezes each family from its candidate labels, in index order, and a
stream of (ballot, weight, voter group) entries.  ``gain_holds`` and
``min_k_gain_search`` check the layered election's validity inequality
for one parameter set and scan it over base sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, zip_longest
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import (
    BallotClass,
    Election,
    Epsilon,
    InvalidElectionError,
    PavlsError,
    Swap,
    inverse_sequence,
)
from .search import LexicographicBetterResponse, RunTrace, run


class ConstructionError(PavlsError):
    pass


class GammaTooSmallError(ConstructionError):
    def __init__(self, step_index: int, observed: Fraction, gamma: Fraction):
        super().__init__(
            f"step {step_index}: observed delta {observed} exceeds gamma bound {gamma}"
        )
        self.step_index = step_index
        self.observed = observed
        self.gamma = gamma


@dataclass
class LabeledElection:
    """An election plus name->index maps for construction roles."""

    election: Election
    candidate_labels: dict[str, int]
    voter_groups: dict[str, frozenset[int]]
    counterpart: Optional[dict[int, int]] = None

    def __post_init__(self):
        # Junk here would surface as a bare AttributeError in whatever
        # reads the election first.
        if not isinstance(self.election, Election):
            raise InvalidElectionError(f"election must be an Election, got {self.election!r}")

    def candidate(self, label: str) -> int:
        try:
            return self.candidate_labels[label]
        except (KeyError, TypeError):  # unknown or unhashable
            raise ConstructionError(f"unknown candidate label {label!r}") from None

    def committee(self, *labels: str) -> frozenset[int]:
        return frozenset(map(self.candidate, labels))


def _build(
    labels: list[str],
    entries: Iterable[tuple[frozenset[int], int, str]],
    k: int,
    counterpart: Optional[dict[int, int]] = None,
) -> LabeledElection:
    """Freeze a family: ``labels`` names the candidates in index order,
    and ``entries`` yields each ballot class as (ballot of candidate
    indices, weight, voter group), in class order."""
    classes: list[BallotClass] = []
    groups: dict[str, list[int]] = {}
    for ballot, weight, group in entries:
        groups.setdefault(group, []).append(len(classes))
        classes.append(BallotClass(ballot, weight))
    return LabeledElection(
        election=Election(tuple(labels), tuple(classes), k),
        candidate_labels={name: i for i, name in enumerate(labels)},
        voter_groups={g: frozenset(idxs) for g, idxs in groups.items()},
        counterpart=counterpart,
    )


def _dummies(count: int) -> list[str]:
    return [f"d{i}" for i in range(1, count + 1)]


# ---------------------------------------------------------------------------
# Atomic gain value


def _check_depth(what: str, j: int, k: int) -> None:
    # Exact ints: f_election(1.0, 3) would build an election, and a float
    # k would fail deep inside the recursion.
    if type(j) is not int or type(k) is not int or not 1 <= j < k:
        raise ConstructionError(f"{what} needs ints 1 <= j < k, got j={j!r}, k={k!r}")


def delta_formula(j: int, k: int) -> Fraction:
    """j! / ((k)(k-1)...(k-j)), the pivotal swap's exact score gain."""
    _check_depth("delta_formula", j, k)
    denom = 1
    for jp in range(j + 1):
        denom *= k - jp
    return Fraction(math.factorial(j), denom)


# ---------------------------------------------------------------------------
# Warm-up family (quadratic lower bound for the n/k^2 threshold)


def _warmup_layout(k: int) -> tuple[range, range, range]:
    """The indices of c[1,1..t+1], of c[2,1..k] and of the dummies
    d1..d(k-2), in that order, with t = floor(k/4)."""
    if type(k) is not int or k < 4:
        raise ConstructionError(f"warmup family needs an int k >= 4, got {k!r}")
    t = k // 4
    return range(t + 1), range(t + 1, t + k + 1), range(t + k + 1, t + 2 * k - 1)


def warmup_election(k: int) -> LabeledElection:
    """Instance with a (k-1)(floor(k/4)+1)-step sequence of swaps each
    gaining at least n/k^2.

    Candidates: a short chain c[1,1..t+1], a long chain c[2,1..k], and
    k-2 dummies seating the rest of the committee.  The two chain-walker
    groups V1/V2 disagree on the parity classes of the long chain, the
    staircase groups S_j pay for each forward step on the long chain,
    and the dummy group U pads the voter count to just below k^2/2.
    """
    c1, c2, dummies = map(list, _warmup_layout(k))  # see _et_ballots
    t = k // 4
    labels = (
        [f"c[1,{i}]" for i in range(1, t + 2)]
        + [f"c[2,{j}]" for j in range(1, k + 1)]
        + _dummies(k - 2)
    )
    # V1: c[1,i+1..t+1] and the even c[2,.]; V2: c[1,1..i] and the odd c[2,.]
    v1 = ((frozenset(chain(c1[i:], c2[1::2])), 1, "V1") for i in range(1, t + 1))
    v2 = ((frozenset(chain(c1[:i], c2[0::2])), 1, "V2") for i in range(1, t + 1))
    s = ((frozenset(c2[j - 1:]), t, f"S{j}") for j in range(1, k + 1))
    u = [(frozenset(dummies), (k * k - 2 * k) // 4, "U")]
    return _build(labels, chain(v1, v2, s, u), k)


def warmup_initial_committee(labeled: LabeledElection) -> frozenset[int]:
    _check_params(labeled, LabeledElection)
    k = labeled.election.require_committee_size()
    names = ["c[1,1]", "c[2,1]"] + _dummies(k - 2)
    return labeled.committee(*names)


def warmup_sequence(k: int) -> list[Swap]:
    """The full good-swap sequence: sweep the short chain up, advance the
    long chain, sweep back down, and so on for k-1 rounds."""
    c1, c2, _ = _warmup_layout(k)
    up = [Swap(out, into) for out, into in zip(c1, c1[1:])]
    seq: list[Swap] = []
    for j, (out, into) in enumerate(zip(c2, c2[1:]), start=1):
        seq.extend(up if j % 2 == 1 else inverse_sequence(up))
        seq.append(Swap(out, into))
    return seq


# ---------------------------------------------------------------------------
# Atomic families F(j, k) and E(j, k)


# An atomic ballot approves the dummy prefix d1..dp and one role, a or
# b; an e-ballot also approves one direction flag, x or y.  Ballots are
# kept as (p, role) and (p, role, flag) tuples.
_SWAP_AB = {"a": "b", "b": "a"}


def _f_ballots(j: int, k: int) -> list[tuple[int, str]]:
    """F(0, k) is the single ballot {d1..d(k-1), b}; F(j, k) merges a
    role-swapped F(j-1, k) with F(j-1, k-1)."""
    if j == 0:
        return [(k - 1, "b")]
    first = [(p, _SWAP_AB[role]) for p, role in _f_ballots(j - 1, k)]
    return first + _f_ballots(j - 1, k - 1)


def f_election(j: int, k: int) -> LabeledElection:
    """Recursive merge family over candidates d1..d(k-1), a, b with 2^j
    unit-weight ballots."""
    _check_depth("f family", j, k)
    ballots = _f_ballots(j, k)
    role_index = {"a": k - 1, "b": k}
    half = len(ballots) // 2
    entries = (
        (frozenset((*range(p), role_index[role])), 1,
         "N1" if (j > 1 and idx < half) else ("N2" if j > 1 else "N"))
        for idx, (p, role) in enumerate(ballots)
    )
    return _build(_dummies(k - 1) + ["a", "b"], entries, k)


def _e_ballots(j: int, k: int) -> list[tuple[int, str, str]]:
    """A role-swapped copy of F(j-1, k-1) with x added, then the copy
    itself with y added; see :func:`_mirror` for the counterparts."""
    base = _f_ballots(j - 1, k - 1)
    return [(p, _SWAP_AB[role], "x") for p, role in base] + [(p, role, "y") for p, role in base]


def _mirror(half: int, offset: int = 0) -> dict[int, int]:
    """The counterpart map of one e-family copy whose 2*half voters start
    at ``offset``: voter offset+i and voter offset+half+i are mirrors."""
    counterpart: dict[int, int] = {}
    for i in range(offset, offset + half):
        counterpart[i], counterpart[half + i] = half + i, i
    return counterpart


def e_election(j: int, k: int) -> LabeledElection:
    """Two mirrored copies of the f family joined by the direction flags
    x and y; the recorded counterpart bijection pairs each voter with
    her mirror image.  It is the chained family's single copy, with a
    and b as its chain."""
    _check_depth("e family", j, k)
    half = 2 ** (j - 1)
    ballots = _et_ballots(range(k, k + 2), [k - 2], [k - 1], range(k - 2), j, k)
    entries = (
        (ballot, 1, "N1" if idx < half else "N2") for idx, (ballot, _copy) in enumerate(ballots)
    )
    return _build(_dummies(k - 2) + ["x", "y", "a", "b"], entries, k, _mirror(half))


# ---------------------------------------------------------------------------
# Chained family E^t(j, k)


def _et_ballots(
    column: Sequence[int], x: Sequence[int], y: Sequence[int], dummies: Sequence[int],
    j: int, k: int,
) -> Iterator[tuple[frozenset[int], int]]:
    """Ballots of t = len(column) - 1 chained copies of the e family over
    the chain indices ``column``, the forward flag indices ``x``, the
    backward flag indices ``y`` and the dummy indices ``dummies`` (d1
    first), each with its copy index (1-based).

    Each distinct ballot of a copy is built once, and every class that
    repeats it yields that same frozenset."""
    ballots = _e_ballots(j, k)
    distinct = dict.fromkeys(ballots)
    # Lists, not ranges: a range makes a new int object per element past
    # 256 in every ballot it fills, while list slices share one per index.
    column, x, y, dummies = list(column), list(x), list(y), list(dummies)
    for i in range(1, len(column)):
        # Every copy's forward-direction voters approve the shared x and
        # its backward-direction voters the shared y; this keeps each
        # restricted copy isomorphic to the atomic family with x seated
        # exactly when the ascending direction is the improving one.
        # Clone closure: a voter of copy i approves the whole lower
        # segment c1..ci or upper segment c(i+1)..c(t+1), never part of one.
        stands_for = {"a": column[:i], "b": column[i:], "x": x, "y": y}
        # Filled one by one, a frozenset gets the same table size as the
        # parser's; a set union may double it.
        built = {
            (p, role, flag): frozenset(chain(dummies[:p], stands_for[role], stands_for[flag]))
            for p, role, flag in distinct
        }
        for ballot in ballots:
            yield built[ballot], i


def e_t_election(t: int, j: int, k: int) -> LabeledElection:
    """t chained copies of the e family sharing the candidate chain
    c1..c(t+1) and the direction flags x, y."""
    if type(t) is not int or t < 1:
        raise ConstructionError(f"e_t family needs an int t >= 1, got {t!r}")
    _check_depth("e family", j, k)
    labels = [f"c{q}" for q in range(1, t + 2)] + ["x", "y"] + _dummies(k - 2)
    dummies = range(t + 3, t + k + 1)
    ballots = _et_ballots(range(t + 1), [t + 1], [t + 2], dummies, j, k)
    entries = ((ballot, 1, f"N{copy_index}") for ballot, copy_index in ballots)
    per_copy = 2 ** j
    counterpart: dict[int, int] = {}
    for offset in range(0, t * per_copy, per_copy):
        counterpart.update(_mirror(per_copy // 2, offset))
    return _build(labels, entries, k, counterpart)


# ---------------------------------------------------------------------------
# Layered election


@dataclass(frozen=True)
class LayeredParams:
    """Parameters of the layered election.

    ``levels`` is an independent parameter (the asymptotic analysis
    fixes it to ceil(log2 k), where the construction only becomes valid
    for k in the hundreds); ``level_arity(i)`` = 2*levels - 2*(i-1) is
    the per-level recursion depth of the atomic family.
    """

    levels: int
    k: int

    def __post_init__(self):
        if type(self.levels) is not int or type(self.k) is not int:
            raise ConstructionError(f"levels and k must be ints, got {self.levels!r}, {self.k!r}")
        if self.levels < 1:
            raise ConstructionError(f"levels must be >= 1, got {self.levels}")
        if 2 * self.levels >= self.k2 + 1:
            raise ConstructionError(
                f"invalid params: level arity {2 * self.levels} must stay below "
                f"k2+1 = {self.k2 + 1} (levels={self.levels}, k={self.k})"
            )

    @property
    def t(self) -> int:
        return 2 * ((self.k + 1) // 2)  # k rounded up to even

    @property
    def k2(self) -> int:
        return self.k - self.levels

    def level_arity(self, i: int) -> int:
        _check_level(self, i)
        return 2 * self.levels - 2 * (i - 1)

    @staticmethod
    def asymptotic_levels(k: int) -> int:
        """ceil(log2 k), the setting under which the length bound
        becomes super-polynomial in k alone."""
        if type(k) is not int or k < 1:
            raise ConstructionError(f"asymptotic level count needs an int k >= 1, got {k!r}")
        return max(1, math.ceil(math.log2(k)))


def _check_params(params: object, kind: type = LayeredParams) -> None:
    # A tuple or None would fail on its first attribute read.
    if not isinstance(params, kind):
        raise ConstructionError(f"params must be a {kind.__name__}, got {params!r}")


def _check_level(params: LayeredParams, level: int) -> None:
    _check_params(params)
    if type(level) is not int or not 1 <= level <= params.levels:
        raise ConstructionError(f"level {level!r} not in [1, {params.levels}]")


def _column(params: LayeredParams, level: int) -> range:
    """The indices of c[level,1..t+1]; the dummies d1..d(k2) follow the
    last column."""
    start = (level - 1) * (params.t + 1)
    return range(start, start + params.t + 1)


def layered_initial_committee(params: LayeredParams) -> frozenset[int]:
    """c[i,t+1] below the top level, c[levels,1] and every dummy."""
    _check_params(params)
    top = _column(params, params.levels)
    members = {_column(params, i)[-1] for i in range(1, params.levels)}
    return frozenset({*members, top[0], *range(top.stop, top.stop + params.k2)})


def layered_election(params: LayeredParams) -> LabeledElection:
    """One chained column per level, with each column's direction flags
    replaced by the parity classes of the next column.

    The last column's forward flag is identified with the dummy
    candidate d_{k2}, and its backward flag with no candidate.
    """
    _check_params(params)
    return _build(_layered_labels(params), _layered_entries(params), params.k)


def _layered_labels(params: LayeredParams) -> list[str]:
    """c[1,1..t+1], ..., c[levels,1..t+1], then d1..d(k2)."""
    columns = range(1, params.levels + 1)
    return [f"c[{i},{q}]" for i in columns for q in range(1, params.t + 2)] + _dummies(params.k2)


def _layered_entries(params: LayeredParams) -> Iterator[tuple[frozenset[int], int, str]]:
    """The layered election's ballot classes, in class order."""
    k2, levels = params.k2, params.levels
    columns = [_column(params, i) for i in range(1, levels + 1)]
    dummies = range(columns[-1].stop, columns[-1].stop + k2)
    for i, column in enumerate(columns, start=1):
        if i < levels:  # the next column's odd and even positions
            forward, backward = columns[i][0::2], columns[i][1::2]
        else:
            forward, backward = dummies[-1:], ()
        for ballot, _copy in _et_ballots(
            column, forward, backward, dummies, params.level_arity(i), k2 + 1
        ):
            yield ballot, 1, f"N{i}"


@dataclass
class GainReport:
    """Per-level evaluation of the validity inequality
    delta(j_i, k2+1) > t * delta(j_{i-1}, k2+1)."""

    levels: dict[int, bool]
    margins: dict[int, tuple[Fraction, Fraction]]  # level -> (lhs, rhs)
    passed: bool


def gain_holds(params: LayeredParams) -> GainReport:
    _check_params(params)
    kk = params.k2 + 1
    levels: dict[int, bool] = {}
    margins: dict[int, tuple[Fraction, Fraction]] = {}
    for i in range(2, params.levels + 1):
        lhs = delta_formula(params.level_arity(i), kk)
        rhs = params.t * delta_formula(params.level_arity(i - 1), kk)
        levels[i] = lhs > rhs
        margins[i] = (lhs, rhs)
    return GainReport(levels=levels, margins=margins, passed=all(levels.values()))


@dataclass
class GainSearchEntry:
    k: int
    levels: Optional[int]  # None: params invalid at this k
    outcome: str  # "pass" | "fail" | "invalid"
    margins: dict[int, tuple[Fraction, Fraction]]


@dataclass
class GainSearchReport:
    entries: list[GainSearchEntry]
    first_pass: Optional[int]


def min_k_gain_search(
    k_range: Iterable[int], levels: Optional[int] = None
) -> GainSearchReport:
    """Scan k ascending for the first k where the layered gain
    inequality holds at every level.

    ``levels=None`` uses the asymptotic rule ceil(log2 k) per k; a
    fixed integer pins the level count.  Monotonicity is not assumed:
    every k's outcome is reported individually.
    """
    # Exact ints only: an out-of-range int is an "invalid" entry, but a
    # float, bool or string k is a caller's mistake.
    if levels is not None and type(levels) is not int:
        raise ConstructionError(f"levels must be None or an int, got {levels!r}")
    try:
        ks = list(k_range)
    except TypeError:
        raise ConstructionError(f"k_range must be an iterable of ints, got {k_range!r}") from None
    if any(type(k) is not int for k in ks):
        raise ConstructionError(f"k_range must hold only ints, got {ks!r}")
    entries: list[GainSearchEntry] = []
    first_pass: Optional[int] = None
    for k in sorted(set(ks)):
        try:
            lv = levels if levels is not None else LayeredParams.asymptotic_levels(k)
            params = LayeredParams(levels=lv, k=k)
        except ConstructionError:
            entries.append(GainSearchEntry(k=k, levels=None, outcome="invalid", margins={}))
            continue
        report = gain_holds(params)
        outcome = "pass" if report.passed else "fail"
        entries.append(GainSearchEntry(k=k, levels=lv, outcome=outcome, margins=report.margins))
        if outcome == "pass" and first_pass is None:
            first_pass = k
    return GainSearchReport(entries=entries, first_pass=first_pass)


# ---------------------------------------------------------------------------
# Recursive sweep sequences


def x_length(params: LayeredParams, level: int) -> int:
    """len(1) = t, len(i) = t * (len(i-1) + 1)."""
    _check_level(params, level)
    length = params.t
    for _ in range(2, level + 1):
        length = params.t * (length + 1)
    return length


def _check_sweep(params: LayeredParams, level: int, parity: int) -> None:
    # Exact ints: True would pass for parity 1, and the z-sequence would
    # read any parity other than 0 as 1.
    if type(parity) is not int or parity not in (0, 1):
        raise ConstructionError(f"parity must be 0 or 1, got {parity!r}")
    _check_level(params, level)


def iter_x_sequence(params: LayeredParams, level: int, parity: int = 1) -> Iterator[Swap]:
    """Stream the recursive sweep sequence without materializing it:
    parity 1 steps up the level's column, parity 0 down it, and above
    level 1 each step is followed by a sub-sweep of alternating parity."""
    _check_sweep(params, level, parity)
    column = _column(params, level)
    if parity == 0:
        column = column[::-1]
    for j, (out, into) in enumerate(zip(column, column[1:])):
        yield Swap(out, into)
        if level > 1:
            yield from iter_x_sequence(params, level - 1, j % 2)


# ---------------------------------------------------------------------------
# Hardened election (fixed lexicographic pivoting rule)


@dataclass(frozen=True)
class HardenedParams:
    """Layered params plus the blocker-group sizing bound gamma.

    gamma must upper-bound every delta observed along the replayed
    sequence (certified, not assumed); the default is the generous
    closed-form bound 8k^2(k+1).
    """

    layered: LayeredParams
    gamma: Optional[Union[int, Fraction]] = None

    def __post_init__(self):
        if not isinstance(self.layered, LayeredParams):
            raise ConstructionError(f"layered must be a LayeredParams, got {self.layered!r}")
        # Exact and positive: a float would reach the exact delta
        # comparisons of certify_hardened.
        exact = type(self.gamma) is int or isinstance(self.gamma, Fraction)
        if self.gamma is not None and not (exact and self.gamma > 0):
            raise ConstructionError(f"gamma must be a positive int or Fraction, got {self.gamma!r}")

    @property
    def gamma_value(self) -> Fraction:
        if self.gamma is not None:
            return Fraction(self.gamma)
        k = self.layered.k
        return Fraction(8 * k * k * (k + 1))

    @property
    def blocker_weight(self) -> int:
        return math.ceil(2 * self.gamma_value)

    def candidate_order(self) -> tuple[int, ...]:
        # Registration order already realises the required order:
        # within-column ascending, columns ascending, dummies last.
        params = self.layered
        return tuple(range(params.levels * (params.t + 1) + params.k2))


def hardened_election(hp: HardenedParams) -> LabeledElection:
    """Layered election plus k blocker classes: one per column approving
    that whole column, one per dummy approving just it.  Any swap across
    columns (or trading a dummy for a column candidate) then loses at
    least gamma and is never improving."""
    _check_params(hp, HardenedParams)
    params = hp.layered
    report = gain_holds(params)
    if not report.passed:
        raise ConstructionError(
            f"gain inequality fails at levels "
            f"{[i for i, ok in report.levels.items() if not ok]}; "
            "hardened instance would not certify"
        )
    weight, levels = hp.blocker_weight, params.levels
    column_blockers = (
        (frozenset(_column(params, i)), weight, f"V{i}") for i in range(1, levels + 1)
    )
    dummies = _column(params, levels).stop
    dummy_blockers = (
        (frozenset({dummies + i - 1}), weight, f"V{levels + i}") for i in range(1, params.k2 + 1)
    )
    entries = chain(_layered_entries(params), column_blockers, dummy_blockers)
    return _build(_layered_labels(params), entries, params.k)


def iter_z_sequence(params: LayeredParams, level: int, parity: int = 1) -> Iterator[Swap]:
    """The shortcut sequence: every backward sub-sweep below the top
    level collapses to the single swap (c[l,t+1] -> c[l,1]); forward
    sweeps step up the column as in the x-sequence."""
    _check_sweep(params, level, parity)
    column = _column(params, level)
    if parity == 0:
        yield Swap(column[-1], column[0])
        return
    for j, (out, into) in enumerate(zip(column, column[1:])):
        yield Swap(out, into)
        if level > 1:
            yield from iter_z_sequence(params, level - 1, j % 2)


@dataclass
class HardenedCertificate:
    trace: RunTrace
    predicted: list[Swap]
    matches: bool
    first_mismatch: Optional[int]
    gamma: Fraction


def certify_hardened(hp: HardenedParams, step_cap: Optional[int] = None) -> HardenedCertificate:
    """Run lexicographic better response on the hardened instance and
    check it executes exactly the predicted shortcut sequence, with
    every observed delta within the gamma bound.  With ``step_cap`` the
    prediction is the sequence's first ``step_cap`` swaps."""
    labeled = hardened_election(hp)
    params = hp.layered
    eps = Epsilon.zero_plus(params.k)
    trace = run(
        labeled.election,
        layered_initial_committee(params),
        eps,
        LexicographicBetterResponse(hp.candidate_order()),
        step_cap=step_cap,
    )
    gamma = hp.gamma_value
    for idx, d in enumerate(trace.step_deltas):
        if d > gamma:
            raise GammaTooSmallError(idx, d, gamma)
    predicted = list(islice(iter_z_sequence(params, params.levels, 1), step_cap))
    pairs = enumerate(zip_longest(trace.executed_swaps, predicted))
    first_mismatch = next((idx for idx, (got, want) in pairs if got != want), None)
    return HardenedCertificate(
        trace=trace,
        predicted=predicted,
        matches=first_mismatch is None,
        first_mismatch=first_mismatch,
        gamma=gamma,
    )
