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
by-name access to candidates and voter groups, and every generator
finishes with a structural self-check.  ``gain_holds`` and
``min_k_gain_search`` check the layered election's validity inequality
for one parameter set and scan it over base sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .core import (
    BallotClass,
    Election,
    Epsilon,
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

    def candidate(self, label: str) -> int:
        return self.candidate_labels[label]

    def committee(self, *labels: str) -> frozenset[int]:
        return frozenset(self.candidate_labels[name] for name in labels)


class _Builder:
    """Name-keyed candidates, in index order, plus accumulated ballots;
    freezes into a LabeledElection."""

    def __init__(self, candidates: Iterable[str]):
        self.candidates = list(candidates)
        self.index: dict[str, int] = {}
        for idx, name in enumerate(self.candidates):
            if self.index.setdefault(name, idx) != idx:
                raise ConstructionError(f"duplicate candidate label {name!r}")
        self.classes: list[tuple[frozenset[str], int]] = []
        self.groups: dict[str, list[int]] = {}

    def add_class(self, ballot: frozenset[str], weight: int, group: str) -> int:
        idx = len(self.classes)
        self.classes.append((ballot, weight))
        self.groups.setdefault(group, []).append(idx)
        return idx

    def build(self, k: int, counterpart: Optional[dict[int, int]] = None) -> LabeledElection:
        ballot_classes = tuple(
            BallotClass(frozenset(self.index[name] for name in ballot), weight)
            for ballot, weight in self.classes
        )
        labeled = LabeledElection(
            election=Election(tuple(self.candidates), ballot_classes, k),
            candidate_labels=dict(self.index),
            voter_groups={g: frozenset(idxs) for g, idxs in self.groups.items()},
            counterpart=counterpart,
        )
        _self_check(labeled)
        return labeled


def _self_check(labeled: LabeledElection) -> None:
    """Label maps total, groups partition the classes, counterpart is a
    fixed-point-free involution."""
    m = labeled.election.m
    indices = set(labeled.candidate_labels.values())
    if indices != set(range(m)):
        raise ConstructionError("candidate label map does not cover all candidates")
    seen: set[int] = set()
    for name, members in labeled.voter_groups.items():
        if members & seen:
            raise ConstructionError(f"voter group {name!r} overlaps another group")
        seen |= members
    if seen != set(range(len(labeled.election.ballot_classes))):
        raise ConstructionError("voter groups do not partition the ballot classes")
    if labeled.counterpart is not None:
        s = labeled.counterpart
        for v, w in s.items():
            if w == v or s.get(w) != v:
                raise ConstructionError("counterpart map is not a fixed-point-free involution")


def _dummies(count: int) -> list[str]:
    return [f"d{i}" for i in range(1, count + 1)]


def _rename(ballot: frozenset[str], names: dict[str, Iterable[str]]) -> frozenset[str]:
    """Replace each name that ``names`` maps by the names it maps to."""
    return frozenset(new for name in ballot for new in names.get(name, (name,)))


# ---------------------------------------------------------------------------
# Atomic gain value


def delta_formula(j: int, k: int) -> Fraction:
    """j! / ((k)(k-1)...(k-j)), the pivotal swap's exact score gain."""
    if not 1 <= j < k:
        raise ConstructionError(f"delta_formula undefined for j={j}, k={k} (need 1 <= j < k)")
    denom = 1
    for jp in range(j + 1):
        denom *= k - jp
    return Fraction(math.factorial(j), denom)


# ---------------------------------------------------------------------------
# Warm-up family (quadratic lower bound for the n/k^2 threshold)


def warmup_election(k: int) -> LabeledElection:
    """Instance with a (k-1)(floor(k/4)+1)-step sequence of swaps each
    gaining at least n/k^2.

    Candidates: a short chain c[1,1..t+1], a long chain c[2,1..k], and
    k-2 dummies seating the rest of the committee.  The two chain-walker
    groups V1/V2 disagree on the parity classes of the long chain, the
    staircase groups S_j pay for each forward step on the long chain,
    and the dummy group U pads the voter count to just below k^2/2.
    """
    if k < 4:
        raise ConstructionError(f"warmup family needs k >= 4, got {k}")
    t = k // 4
    b = _Builder(
        [f"c[1,{i}]" for i in range(1, t + 2)]
        + [f"c[2,{j}]" for j in range(1, k + 1)]
        + _dummies(k - 2)
    )
    even_c2 = frozenset(f"c[2,{j}]" for j in range(2, k + 1, 2))
    odd_c2 = frozenset(f"c[2,{j}]" for j in range(1, k + 1, 2))
    for i in range(1, t + 1):
        upper = frozenset(f"c[1,{q}]" for q in range(i + 1, t + 2))
        b.add_class(upper | even_c2, 1, "V1")
    for i in range(1, t + 1):
        lower = frozenset(f"c[1,{q}]" for q in range(1, i + 1))
        b.add_class(lower | odd_c2, 1, "V2")
    for j in range(1, k + 1):
        tail = frozenset(f"c[2,{q}]" for q in range(j, k + 1))
        b.add_class(tail, t, f"S{j}")
    b.add_class(frozenset(_dummies(k - 2)), (k * k - 2 * k) // 4, "U")
    return b.build(k)


def warmup_initial_committee(labeled: LabeledElection) -> frozenset[int]:
    k = labeled.election.committee_size
    names = ["c[1,1]", "c[2,1]"] + _dummies(k - 2)
    return labeled.committee(*names)


def warmup_sequence(k: int) -> list[Swap]:
    """The full good-swap sequence: sweep the short chain up, advance the
    long chain, sweep back down, and so on for k-1 rounds."""
    if k < 4:
        raise ConstructionError(f"warmup family needs k >= 4, got {k}")
    t = k // 4
    c1 = lambda i: i - 1
    c2 = lambda j: (t + 1) + (j - 1)
    up = [Swap(c1(i), c1(i + 1)) for i in range(1, t + 1)]
    seq: list[Swap] = []
    for j in range(1, k):
        seq.extend(up if j % 2 == 1 else inverse_sequence(up))
        seq.append(Swap(c2(j), c2(j + 1)))
    return seq


# ---------------------------------------------------------------------------
# Atomic families F(j, k) and E(j, k)


_SWAP_AB = {"a": ("b",), "b": ("a",)}


def _check_depth(family: str, j: int, k: int) -> None:
    if not 1 <= j < k:
        raise ConstructionError(f"{family} family needs 1 <= j < k, got j={j}, k={k}")


def _f_ballots(j: int, k: int) -> list[frozenset[str]]:
    """F(0, k) is the single ballot {d1..d(k-1), b}; F(j, k) merges a
    role-swapped F(j-1, k) with F(j-1, k-1)."""
    if j == 0:
        return [frozenset(_dummies(k - 1) + ["b"])]
    first = [_rename(ballot, _SWAP_AB) for ballot in _f_ballots(j - 1, k)]
    return first + _f_ballots(j - 1, k - 1)


def f_election(j: int, k: int) -> LabeledElection:
    """Recursive merge family over candidates d1..d(k-1), a, b with 2^j
    unit-weight ballots."""
    _check_depth("f", j, k)
    ballots = _f_ballots(j, k)
    b = _Builder(_dummies(k - 1) + ["a", "b"])
    half = len(ballots) // 2
    for idx, ballot in enumerate(ballots):
        group = "N1" if (j > 1 and idx < half) else ("N2" if j > 1 else "N")
        b.add_class(ballot, 1, group)
    return b.build(k)


def _e_ballots(j: int, k: int) -> tuple[list[frozenset[str]], dict[int, int]]:
    """A role-swapped copy of F(j-1, k-1) with x added, then the copy
    itself with y added; voter i and voter half+i are counterparts."""
    _check_depth("e", j, k)
    base = _f_ballots(j - 1, k - 1)
    half = len(base)
    first = [_rename(ballot, _SWAP_AB) | {"x"} for ballot in base]
    counterpart: dict[int, int] = {}
    for i in range(half):
        counterpart[i], counterpart[half + i] = half + i, i
    return first + [ballot | {"y"} for ballot in base], counterpart


def e_election(j: int, k: int) -> LabeledElection:
    """Two mirrored copies of the f family joined by the direction flags
    x and y; the recorded counterpart bijection pairs each voter with
    her mirror image."""
    ballots, counterpart = _e_ballots(j, k)
    b = _Builder(_dummies(k - 2) + ["x", "y", "a", "b"])
    half = len(ballots) // 2
    for idx, ballot in enumerate(ballots):
        b.add_class(ballot, 1, "N1" if idx < half else "N2")
    return b.build(k, counterpart)


# ---------------------------------------------------------------------------
# Chained family E^t(j, k)


def _et_ballots(
    chain: list[str], x: Iterable[str], y: Iterable[str], j: int, k: int
) -> tuple[list[tuple[frozenset[str], int]], dict[int, int]]:
    """Ballots of t = len(chain) - 1 chained copies of the e family over
    the chain names, the forward flag names ``x``, the backward flag
    names ``y`` and d1..d(k-2), with the copy index (1-based) attached,
    plus the merged counterpart map."""
    t = len(chain) - 1
    if t < 1:
        raise ConstructionError(f"e_t family needs t >= 1, got {t}")
    base, base_cp = _e_ballots(j, k)
    out: list[tuple[frozenset[str], int]] = []
    counterpart: dict[int, int] = {}
    for i in range(1, t + 1):
        offset = len(out)
        # Every copy's forward-direction voters approve the shared x and
        # its backward-direction voters the shared y; this keeps each
        # restricted copy isomorphic to the atomic family with x seated
        # exactly when the ascending direction is the improving one.
        # Clone closure: a voter of copy i approves the whole lower
        # segment c1..ci or upper segment c(i+1)..c(t+1), never part of one.
        names = {"a": chain[:i], "b": chain[i:], "x": x, "y": y}
        out.extend((_rename(ballot, names), i) for ballot in base)
        for v, w in base_cp.items():
            counterpart[offset + v] = offset + w
    return out, counterpart


def e_t_election(t: int, j: int, k: int) -> LabeledElection:
    """t chained copies of the e family sharing the candidate chain
    c1..c(t+1) and the direction flags x, y."""
    chain = [f"c{q}" for q in range(1, t + 2)]
    ballots, counterpart = _et_ballots(chain, {"x"}, {"y"}, j, k)
    b = _Builder(chain + ["x", "y"] + _dummies(k - 2))
    for ballot, copy_index in ballots:
        b.add_class(ballot, 1, f"N{copy_index}")
    return b.build(k, counterpart)


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
        if not 1 <= i <= self.levels:
            raise ConstructionError(f"level {i} not in [1, {self.levels}]")
        return 2 * self.levels - 2 * (i - 1)

    @staticmethod
    def asymptotic_levels(k: int) -> int:
        """ceil(log2 k), the setting under which the length bound
        becomes super-polynomial in k alone."""
        if k < 1:
            raise ConstructionError(f"asymptotic level count needs k >= 1, got {k}")
        return max(1, math.ceil(math.log2(k)))


def layered_candidate_index(params: LayeredParams, i: int, q: int) -> int:
    if not (1 <= i <= params.levels and 1 <= q <= params.t + 1):
        raise ConstructionError(f"no candidate at column {i}, position {q}")
    return (i - 1) * (params.t + 1) + (q - 1)


def layered_dummy_index(params: LayeredParams, i: int) -> int:
    if not 1 <= i <= params.k2:
        raise ConstructionError(f"no dummy candidate d{i}")
    return params.levels * (params.t + 1) + (i - 1)


def layered_initial_committee(params: LayeredParams) -> frozenset[int]:
    members = {layered_candidate_index(params, i, params.t + 1) for i in range(1, params.levels)}
    members.add(layered_candidate_index(params, params.levels, 1))
    members |= {layered_dummy_index(params, i) for i in range(1, params.k2 + 1)}
    return frozenset(members)


def layered_election(params: LayeredParams) -> LabeledElection:
    """One chained column per level, with each column's direction flags
    replaced by the parity classes of the next column.

    The last column's forward flag is identified with the dummy
    candidate d_{k2}, and its backward flag with no candidate.
    """
    return _layered_builder(params).build(params.k)


def _layered_builder(params: LayeredParams) -> _Builder:
    """The layered election's candidates and classes, not yet frozen."""
    t, k2, levels = params.t, params.k2, params.levels
    columns = [[f"c[{i},{q}]" for q in range(1, t + 2)] for i in range(1, levels + 1)]
    b = _Builder([name for chain in columns for name in chain] + _dummies(k2))
    for i, chain in enumerate(columns, start=1):
        if i < levels:  # the next column's odd and even positions
            forward, backward = columns[i][0::2], columns[i][1::2]
        else:
            forward, backward = [f"d{k2}"], []
        ballots, _ = _et_ballots(chain, forward, backward, params.level_arity(i), k2 + 1)
        for ballot, _copy in ballots:
            b.add_class(ballot, 1, f"N{i}")
    return b


@dataclass
class GainReport:
    """Per-level evaluation of the validity inequality
    delta(j_i, k2+1) > t * delta(j_{i-1}, k2+1)."""

    levels: dict[int, bool]
    margins: dict[int, tuple[Fraction, Fraction]]  # level -> (lhs, rhs)
    passed: bool


def gain_holds(params: LayeredParams) -> GainReport:
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
    entries: list[GainSearchEntry] = []
    first_pass: Optional[int] = None
    for k in sorted(set(k_range)):
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
    if not 1 <= level <= params.levels:
        raise ConstructionError(f"level {level} not in [1, {params.levels}]")
    length = params.t
    for _ in range(2, level + 1):
        length = params.t * (length + 1)
    return length


def iter_x_sequence(params: LayeredParams, level: int, parity: int = 1) -> Iterator[Swap]:
    """Stream the recursive sweep sequence without materializing it."""
    if parity not in (0, 1):
        raise ConstructionError(f"parity must be 0 or 1, got {parity}")
    if not 1 <= level <= params.levels:
        raise ConstructionError(f"level {level} not in [1, {params.levels}]")
    t = params.t
    cand = lambda q: layered_candidate_index(params, level, q)
    if level == 1:
        if parity == 1:
            for q in range(1, t + 1):
                yield Swap(cand(q), cand(q + 1))
        else:
            for q in range(t + 1, 1, -1):
                yield Swap(cand(q), cand(q - 1))
        return
    for j in range(1, t + 1):
        if parity == 1:
            yield Swap(cand(j), cand(j + 1))
        else:
            yield Swap(cand(t - j + 2), cand(t - j + 1))
        yield from iter_x_sequence(params, level - 1, (j - 1) % 2)


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
    gamma: Optional[Fraction] = None

    @property
    def gamma_value(self) -> Fraction:
        if self.gamma is not None:
            if self.gamma <= 0:
                raise ConstructionError(f"gamma must be positive, got {self.gamma}")
            return self.gamma
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
    params = hp.layered
    report = gain_holds(params)
    if not report.passed:
        raise ConstructionError(
            f"gain inequality fails at levels "
            f"{[i for i, ok in report.levels.items() if not ok]}; "
            "hardened instance would not certify"
        )
    b = _layered_builder(params)
    weight = hp.blocker_weight
    for i in range(1, params.levels + 1):
        column = frozenset(f"c[{i},{q}]" for q in range(1, params.t + 2))
        b.add_class(column, weight, f"V{i}")
    for i in range(1, params.k2 + 1):
        b.add_class(frozenset({f"d{i}"}), weight, f"V{params.levels + i}")
    return b.build(params.k)


def iter_z_sequence(params: LayeredParams, level: int, parity: int = 1) -> Iterator[Swap]:
    """The shortcut sequence: every backward sub-sweep below the top
    level collapses to the single swap (c[l,t+1] -> c[l,1])."""
    t = params.t
    cand = lambda q: layered_candidate_index(params, level, q)
    if parity == 0:
        yield Swap(cand(t + 1), cand(1))
        return
    if level == 1:
        yield from iter_x_sequence(params, 1, 1)
        return
    for j in range(1, t + 1):
        yield Swap(cand(j), cand(j + 1))
        yield from iter_z_sequence(params, level - 1, (j - 1) % 2)


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
    every observed delta within the gamma bound."""
    params = hp.layered
    labeled = hardened_election(hp)
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
    predicted = list(iter_z_sequence(params, params.levels, 1))
    first_mismatch = None
    for idx, (got, want) in enumerate(zip(trace.executed_swaps, predicted)):
        if got != want:
            first_mismatch = idx
            break
    if first_mismatch is None and len(trace.executed_swaps) != len(predicted):
        first_mismatch = min(len(trace.executed_swaps), len(predicted))
    return HardenedCertificate(
        trace=trace,
        predicted=predicted,
        matches=first_mismatch is None,
        first_mismatch=first_mismatch,
        gamma=gamma,
    )
