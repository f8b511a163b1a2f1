"""Local-search engine with pluggable pivoting rules.

The engine repeatedly performs swaps whose exact score gain is at least
the run's threshold, until none remains.  Comparison counts (number of
delta evaluations, including failed ones and the final certifying scan)
are the experiments' cost metric and are sequential-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .core import (
    Election,
    Epsilon,
    PavlsError,
    SatisfactionState,
    Swap,
    apply_swap,
    assert_quantized,
    delta,
)


def _scan(
    election: Election, state: SatisfactionState, order: Optional[Sequence[int]]
) -> Iterator[tuple[int, int, Fraction]]:
    """Yield (outgoing, incoming, delta) for every swap in lexicographic
    (incoming, outgoing) order under ``order`` (index order if None)."""
    if order is None:
        order = range(election.m)
    committee = state.committee
    outs = [c for c in order if c in committee]
    for b in order:
        if b not in committee:
            for a in outs:
                yield a, b, delta(election, state, a, b)


def next_swap_lex(
    election: Election,
    state: SatisfactionState,
    epsilon: Epsilon,
    order: Optional[Sequence[int]] = None,
) -> tuple[Optional[Swap], Optional[Fraction], int]:
    """First swap with delta >= epsilon in lexicographic (in, out) order.

    Returns (swap, delta, comparisons-used); comparisons counts every
    delta evaluation including the failed ones.  If no pair qualifies,
    all k(m-k) pairs have been evaluated.
    """
    threshold = epsilon.value
    comparisons = 0
    for comparisons, (a, b, d) in enumerate(_scan(election, state, order), 1):
        if d >= threshold:
            return Swap(a, b), d, comparisons
    return None, None, comparisons


def next_swap_best(
    election: Election,
    state: SatisfactionState,
    epsilon: Epsilon,
    order: Optional[Sequence[int]] = None,
) -> tuple[Optional[Swap], Optional[Fraction], int]:
    """Maximum-delta swap if it reaches epsilon, else absent.

    Always evaluates all k(m-k) pairs.  The first maximizer in
    lexicographic (in, out) order wins ties.
    """
    best = max(_scan(election, state, order), key=itemgetter(2), default=None)
    k = len(state.committee)
    comparisons = k * (election.m - k)
    if best is None or best[2] < epsilon.value:
        return None, None, comparisons
    a, b, d = best
    return Swap(a, b), d, comparisons


@dataclass(frozen=True)
class _OrderedRule:
    """``order`` is a total order over all candidates (a permutation of
    range(m)); None means index order."""

    order: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.order is not None and sorted(self.order) != list(range(len(self.order))):
            raise ValueError("candidate order must be a permutation of range(m)")


class LexicographicBetterResponse(_OrderedRule):
    """First qualifying swap in lexicographic (incoming, outgoing) order."""


class BestResponse(_OrderedRule):
    """Maximum-gain swap; ties broken lexicographically by (incoming,
    outgoing) order."""


PivotRule = Union[LexicographicBetterResponse, BestResponse]

#: The pivoting rules by name, as the CLI and the experiment CSVs spell them.
RULES: dict[str, PivotRule] = {
    "lex-better": LexicographicBetterResponse(),
    "best": BestResponse(),
}


class InvalidStepCapError(PavlsError):
    pass


@dataclass
class RunTrace:
    """Everything a local-search run did, in order."""

    initial_committee: frozenset[int]
    executed_swaps: list[Swap]
    step_deltas: list[Fraction]
    comparisons: int
    final_committee: frozenset[int]
    terminated: bool  # True: no qualifying swap remained; False: step cap hit
    epsilon: Fraction

    @property
    def swaps(self) -> int:
        return len(self.executed_swaps)

    def total_gain(self) -> Fraction:
        return sum(self.step_deltas, Fraction(0))


def run(
    election: Election,
    initial: Iterable[int],
    epsilon: Epsilon,
    rule: PivotRule,
    step_cap: Optional[int] = None,
) -> RunTrace:
    """Run epsilon-local-search from ``initial`` under the given rule.

    ``step_cap`` bounds the number of executed swaps (None: no bound); a
    run that reaches it stops with ``terminated=False``.
    """
    if step_cap is not None and step_cap < 0:
        raise InvalidStepCapError(f"step cap must be >= 0, got {step_cap}")
    if isinstance(rule, LexicographicBetterResponse):
        picker = next_swap_lex
    elif isinstance(rule, BestResponse):
        picker = next_swap_best
    else:
        raise TypeError(f"unknown pivot rule: {rule!r}")
    if rule.order is not None and len(rule.order) != election.m:
        raise ValueError(f"candidate order has {len(rule.order)} entries, not m={election.m}")
    state = SatisfactionState(election, initial)
    members = frozenset(state.committee)
    check_quantized = epsilon.kind == "zero-plus"
    executed: list[Swap] = []
    deltas: list[Fraction] = []
    comparisons = 0
    terminated = True
    while True:
        if step_cap is not None and len(executed) >= step_cap:
            terminated = False
            break
        swap, d, used = picker(election, state, epsilon, rule.order)
        comparisons += used
        if swap is None:
            break
        if check_quantized:
            assert_quantized(election, d)
        apply_swap(state, swap)
        executed.append(swap)
        deltas.append(d)

    return RunTrace(
        initial_committee=members,
        executed_swaps=executed,
        step_deltas=deltas,
        comparisons=comparisons,
        final_committee=frozenset(state.committee),
        terminated=terminated,
        epsilon=epsilon.value,
    )
