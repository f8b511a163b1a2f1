"""Local-search engine with pluggable pivoting rules.

The engine repeatedly performs swaps whose exact score gain is at least
the run's threshold, until none remains.  Comparison counts (number of
compared pairs, including failed ones and the final certifying scan)
are the experiments' cost metric and are sequential-deterministic.  A
compared pair is one :func:`delta` call; the exact evaluations among
them, the pairs its bound did not refute, are counted apart.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .core import (
    Election,
    Epsilon,
    PavlsError,
    SatisfactionState,
    Swap,
    _Scan,
    _need,
    apply_swap,
    assert_quantized,
    check_epsilon,
    delta,
)


class InvalidRuleError(PavlsError, ValueError):
    """A pivot rule or candidate order that cannot be used (also a ValueError)."""


def check_order(order: Sequence[int], m: int) -> None:
    """Raise :class:`InvalidRuleError` unless ``order`` is a permutation of
    range(m) in exact ints (a scan reads it twice, so it is a sequence)."""
    # Exact ints: 0.0 and True pass the permutation test as 0 and 1.
    exact = isinstance(order, Sequence) and all(type(c) is int for c in order)
    if not exact or sorted(order) != list(range(m)):
        raise InvalidRuleError(f"candidate order must be a permutation of range({m})")


def _pick(
    election: Election, state: SatisfactionState, epsilon: Epsilon,
    order: Optional[Sequence[int]], first: bool,
) -> tuple[Optional[Swap], Optional[Fraction], int]:
    """Both pickers' scan: one :func:`delta` call and one comparison per
    swap, in lexicographic (incoming, outgoing) order under ``order``
    (index order if None).  A pair is kept when its numerator reaches
    the scan's floor, epsilon at first.  With ``first`` the scan stops
    there; otherwise the floor rises one unit past the value kept, so
    the last pair kept is the first maximizer.

    Threshold, state and order are checked here, once.  Each call gets
    ``scan``, this scan's own sums object, in place of the state, so it
    checks nothing and returns a numerator on the scale of
    :func:`core._need`, or None for a pair the floor refutes.  The state
    is only read, but for its count of exact evaluations."""
    scale, need = _need(election, state, epsilon)
    if order is None:
        order = range(election.m)
    else:
        check_order(order, election.m)
    scan = _Scan(state.cells, need)
    committee = state.committee
    outs = [c for c in order if c in committee]
    found, comparisons = None, 0
    for b in order:
        if b in committee:
            continue
        for a in outs:
            comparisons += 1
            num = delta(election, scan, a, b)
            if num is not None and num >= scan.floor:
                found = a, b, num
                if first:
                    break
                scan.floor = num + 1
        if first and found is not None:
            break
    state.delta_evals += scan.evals
    if found is None:
        return None, None, comparisons
    a, b, num = found
    return Swap(a, b), Fraction(num, scale), comparisons


def next_swap_lex(
    election: Election,
    state: SatisfactionState,
    epsilon: Epsilon,
    order: Optional[Sequence[int]] = None,
) -> tuple[Optional[Swap], Optional[Fraction], int]:
    """First swap with delta >= epsilon in lexicographic (in, out) order.

    Returns (swap, delta, comparisons-used); comparisons counts every
    compared pair including the failed ones.  If no pair qualifies, all
    k(m-k) pairs have been compared.  A threshold that is not an
    :class:`Epsilon`, a state not built for ``election`` or an order
    that is not a permutation of range(m) raises a :class:`PavlsError`.
    """
    return _pick(election, state, epsilon, order, True)


def next_swap_best(
    election: Election,
    state: SatisfactionState,
    epsilon: Epsilon,
    order: Optional[Sequence[int]] = None,
) -> tuple[Optional[Swap], Optional[Fraction], int]:
    """Maximum-delta swap if it reaches epsilon, else absent.

    Compares all k(m-k) pairs.  The scan's floor starts at epsilon and
    rises past each value kept, so a pair is kept only if it beats every
    earlier one: the first maximizer in lexicographic (in, out) order
    wins ties.  Checks its arguments as :func:`next_swap_lex` does.
    """
    return _pick(election, state, epsilon, order, False)


@dataclass(frozen=True)
class PivotRule:
    """The base of the two pivoting rules: it holds and checks ``order``, a
    total order over all candidates (a permutation of range(m)); None
    means index order.  Each rule's ``pick`` chooses a run's next swap as
    (swap, delta, comparisons-used)."""

    order: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.order is not None:  # m = len(order); check_order refuses a non-sequence
            check_order(self.order, len(self.order) if isinstance(self.order, Sequence) else 0)


class LexicographicBetterResponse(PivotRule):
    """First qualifying swap in lexicographic (incoming, outgoing) order."""

    def pick(self, election, state, epsilon):
        return next_swap_lex(election, state, epsilon, self.order)


class BestResponse(PivotRule):
    """Maximum-gain swap; ties broken lexicographically by (incoming,
    outgoing) order."""

    def pick(self, election, state, epsilon):
        return next_swap_best(election, state, epsilon, self.order)


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
    delta_evals: int  # the compared pairs evaluated exactly, not refuted
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
    """Run epsilon-local-search from ``initial`` under the given rule, a
    :class:`LexicographicBetterResponse` or a :class:`BestResponse`;
    anything else, a bare :class:`PivotRule` included, raises
    :class:`InvalidRuleError` before the state is built.

    ``step_cap`` bounds the number of executed swaps (None: no bound); a
    run that reaches it stops with ``terminated=False``.
    """
    if step_cap is not None and (type(step_cap) is not int or step_cap < 0):
        raise InvalidStepCapError(f"step cap must be None or an int >= 0, got {step_cap!r}")
    check_epsilon(epsilon)
    if not isinstance(rule, (LexicographicBetterResponse, BestResponse)):
        raise InvalidRuleError(f"not a pivot rule: {rule!r}")
    state = SatisfactionState(election, initial)
    if rule.order is not None:
        check_order(rule.order, election.m)
    members = frozenset(state.committee)
    executed: list[Swap] = []
    deltas: list[Fraction] = []
    comparisons = 0
    terminated = True
    while True:
        if step_cap is not None and len(executed) >= step_cap:
            terminated = False
            break
        swap, d, used = rule.pick(election, state, epsilon)
        comparisons += used
        if swap is None:
            break
        assert_quantized(election, d)
        apply_swap(state, swap)
        executed.append(swap)
        deltas.append(d)

    return RunTrace(
        initial_committee=members,
        executed_swaps=executed,
        step_deltas=deltas,
        comparisons=comparisons,
        delta_evals=state.delta_evals,
        final_committee=frozenset(state.committee),
        terminated=terminated,
        epsilon=epsilon.value,
    )
