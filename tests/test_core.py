import random
from dataclasses import FrozenInstanceError, fields, is_dataclass
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pavls import (
    BallotClass,
    DomainError,
    Election,
    Epsilon,
    InvalidCommitteeError,
    InvalidElectionError,
    InvalidEpsilonError,
    InvalidSwapError,
    LexicographicBetterResponse,
    PavlsError,
    Swap,
    brute_force_optimum,
    delta,
    harmonic,
    inverse_sequence,
    is_locally_optimal,
    lcm_range,
    pav_score,
    select_initial_committee,
    validate_committee,
    validate_sequence,
)
import pavls.core
import pavls.search
from pavls.core import SatisfactionState, _Scan, apply_swap, assert_quantized
from pavls.search import RULES, next_swap_best, next_swap_lex, run


def test_harmonic_values():
    assert harmonic(0) == 0
    assert harmonic(1) == 1
    assert harmonic(3) == Fraction(11, 6)
    assert harmonic(5) == Fraction(137, 60)
    with pytest.raises(ValueError):
        harmonic(-1)


def test_lcm_range():
    assert lcm_range(1) == 1
    assert lcm_range(4) == 12
    assert lcm_range(10) == 2520
    with pytest.raises(ValueError):
        lcm_range(0)


def test_domain_errors_are_pavls_errors():
    # Arguments are exact ints: a float, a string or a bool is refused
    # rather than leaking a TypeError or passing for 0 or 1.
    for call, arg in ((harmonic, -1), (lcm_range, 0), (harmonic, 1.5), (lcm_range, 2.5),
                      (harmonic, "x"), (lcm_range, "3"), (harmonic, True), (lcm_range, True),
                      (lcm_range, None)):
        with pytest.raises(DomainError):
            call(arg)
    assert issubclass(DomainError, PavlsError) and issubclass(DomainError, ValueError)


def test_election_validation():
    with pytest.raises(ValueError):
        Election((), (BallotClass(frozenset(), 1),), None)
    with pytest.raises(ValueError):
        Election(("a", "a"), (BallotClass(frozenset(), 1),), None)
    with pytest.raises(ValueError):
        Election(("a",), (), None)
    with pytest.raises(ValueError):
        Election(("a",), (BallotClass(frozenset({3}), 1),), None)
    with pytest.raises(ValueError):
        Election(("a", "b"), (BallotClass(frozenset({0}), 1),), 3)
    with pytest.raises(ValueError):
        BallotClass(frozenset(), 0)
    # Also a PavlsError, so the CLI reports it as an input error (exit 2).
    assert issubclass(InvalidElectionError, PavlsError)
    with pytest.raises(InvalidElectionError, match="committee size 0"):
        Election(("a", "b"), (BallotClass(frozenset({0}), 1),), 0)


def test_election_rejects_non_int_values():
    # Weights, candidates and committee sizes are exact ints: a float
    # weight would make pav_score a float, and True would pass for
    # candidate 1.
    for weight in (1.5, True, "3", Fraction(2)):
        with pytest.raises(InvalidElectionError):
            BallotClass(frozenset({0}), weight)
    for entry in (True, "0", 0.0):
        with pytest.raises(InvalidElectionError):
            Election(("a", "b"), (BallotClass(frozenset({entry}), 1),), 1)
    for k in ("x", 1.0, True):
        with pytest.raises(InvalidElectionError):
            Election(("a", "b"), (BallotClass(frozenset({0}), 1),), k)
    e = Election(("a", "b"), (BallotClass(frozenset({0}), 1),), 1)
    with pytest.raises(InvalidElectionError):
        e.with_committee_size("2")


@pytest.mark.parametrize("bad, message", [
    (frozenset({0, "1"}), "ballot entries must be ints, got a str"),
    (frozenset({0, 5}), r"ballot entry out of range: 5 \(m=2\)"),
], ids=["str-entry", "out-of-range"])
def test_election_checks_shared_ballots(bad, message):
    # Entries are checked once per distinct approval object; classes that
    # share one bad frozenset fail as classes holding copies of it do.
    for approves in ((bad, bad, bad), (bad, frozenset(bad), frozenset(bad))):
        classes = tuple(BallotClass(a, w) for w, a in enumerate(approves, start=1))
        with pytest.raises(InvalidElectionError, match=f"^{message}$"):
            Election(("a", "b"), classes, 1)


def test_ballot_class_rejects_non_frozenset_approvals():
    # A list or set would be accepted, then break pav_score's set algebra.
    for approves in ([0, 1], {0, 1}, (0, 1), "01"):
        with pytest.raises(InvalidElectionError, match="frozenset"):
            BallotClass(approves, 1)
    with pytest.raises(InvalidElectionError):
        Election(("a", "b"), (BallotClass([0, 1], 1),), 1)


_CLASSES = (BallotClass(frozenset({0}), 1),)


# Each call raised a bare TypeError or AttributeError.
@pytest.mark.parametrize("names, classes, k, message", [
    (None, _CLASSES, 2, "must be iterables"),
    (("a", "b"), None, 1, "must be iterables"),
    ((["a"], "b"), _CLASSES, 1, "names hashable"),
    (("a", "b"), [0], 1, "BallotClasses, got a int"),
    (("a", "b"), "x", 1, "BallotClasses, got a str"),
])
def test_election_rejects_junk_names_and_classes(names, classes, k, message):
    with pytest.raises(InvalidElectionError, match=message):
        Election(names, classes, k)


def test_committee_member_out_of_range():
    e = Election(("a", "b"), _CLASSES, 2)
    with pytest.raises(InvalidCommitteeError, match="out of range: 99"):
        validate_committee(e, [0, 99])


def test_committee_size_plumbing():
    e = Election(("a", "b"), (BallotClass(frozenset({0}), 1),), None)
    with pytest.raises(InvalidCommitteeError):
        e.require_committee_size()
    assert e.with_committee_size(2).require_committee_size() == 2
    with pytest.raises(InvalidCommitteeError):
        validate_committee(e.with_committee_size(1), {0, 1})


def test_with_committee_size_matches_constructor(fig1b):
    # Only k is checked; the result equals a freshly validated election
    # and carries none of the source's cached indexes.
    source = Election(fig1b.candidate_names, fig1b.ballot_classes, None)
    source.approval_masks
    for k in (1, 3, fig1b.m, None):
        e = source.with_committee_size(k)
        assert e == Election(fig1b.candidate_names, fig1b.ballot_classes, k)
        assert type(e) is Election and e.committee_size == k
        assert "approval_masks" not in vars(e)
    assert source.committee_size is None
    for k in (0, fig1b.m + 1, -1, True, 2.0, "2"):
        with pytest.raises(InvalidElectionError, match="committee size"):
            source.with_committee_size(k)


def test_election_is_frozen(fig1a):
    e = fig1a.with_committee_size(2)
    assert e.zero_plus_lcm == 2
    with pytest.raises(FrozenInstanceError):
        e.committee_size = 3
    with pytest.raises(FrozenInstanceError):
        e.ballot_classes = ()
    assert e.committee_size == 2 and e.zero_plus_lcm == 2
    # with_committee_size builds a new election with fresh indexes
    e3 = e.with_committee_size(3)
    assert e3.zero_plus_lcm == 6
    assert e3._cell_coefficients[0] == 12 and e._cell_coefficients[0] == 6
    assert e3.approval_masks == e.approval_masks == (0b01, 0b01, 0b01, 0b10, 0b10)
    state = SatisfactionState(e3, {0, 1, 3})
    assert delta(e3, state, 3, 2) == pav_score(e3, {0, 1, 2}) - pav_score(e3, {0, 1, 3})


def test_pav_score_weighted(fig1a):
    assert pav_score(fig1a, {0, 1, 2}) == 60 * harmonic(3)
    assert pav_score(fig1a, {0, 1, 3}) == 60 * harmonic(2) + 30
    assert pav_score(fig1a, {2, 3, 4}) == 60 + 30 * harmonic(2)


def test_delta_matches_scratch(fig1b):
    state = SatisfactionState(fig1b, {0, 1, 2})
    base = pav_score(fig1b, {0, 1, 2})
    d = delta(fig1b, state, 2, 3)
    assert d == Fraction(28, 3)
    assert d == pav_score(fig1b, {0, 1, 3}) - base


def test_delta_rejects_invalid(fig1a):
    state = SatisfactionState(fig1a, {0, 1, 2})
    with pytest.raises(InvalidSwapError):
        delta(fig1a, state, 3, 4)  # 3 not in committee
    with pytest.raises(InvalidSwapError):
        delta(fig1a, state, 0, 1)  # 1 already seated
    for b in (-1, 9):  # out of range, including negative indexing
        with pytest.raises(InvalidSwapError):
            delta(fig1a, state, 0, b)
        with pytest.raises(InvalidSwapError):
            apply_swap(state, Swap(0, b))
    # Exact ints: True would pass for seated candidate 1, and 3.0 would
    # reach the mask lookup.
    for a, b in ((True, 3), (1, 3.0)):
        with pytest.raises(InvalidSwapError):
            delta(fig1a, state, a, b)


def test_delta_rejects_state_of_another_election():
    # Candidate 1 gains 4 voters on e2; e1's state would make it 2.
    e1 = Election(("c0", "c1"), (BallotClass(frozenset({0}), 1),), 1)
    e2 = Election(("c0", "c1"), (BallotClass(frozenset({1}), 4),), 1)
    state = SatisfactionState(e1, [0])
    with pytest.raises(PavlsError):
        delta(e2, state, 0, 1)
    equal = Election(e2.candidate_names, e2.ballot_classes, 1)
    assert delta(equal, SatisfactionState(e2, [0]), 0, 1) == 4


def test_apply_swap_updates_hits(fig1a):
    state = SatisfactionState(fig1a, {0, 1, 2})
    apply_swap(state, Swap(2, 3))
    assert state.committee == {0, 1, 3}
    # class 0 (weight group 0) approves two members (0, 1), class 1
    # (weight group 1) approves one (3); the stride is k + 2 = 5
    assert state.cells == {2: 0b01, 5 + 1: 0b10}
    # Candidates are exact ints: True would pass for seated candidate 1.
    for bad in (Swap(2, 4), Swap(True, 4), Swap(0, 4.0), (0,), (0, 1, 2), 5):
        with pytest.raises(InvalidSwapError):
            apply_swap(state, bad)
        assert state.committee == {0, 1, 3}  # untouched on failure


def test_epsilon_kinds(fig1b):
    assert Epsilon.threshold(fig1b).value == Fraction(90, 9) == 10
    assert Epsilon.zero_plus(3).value == Fraction(1, 6)
    assert Epsilon.custom(Fraction(5, 2)).value == Fraction(5, 2)
    with pytest.raises(ValueError):
        Epsilon.custom(Fraction(0))
    for bad in (0, -1):
        with pytest.raises(InvalidEpsilonError):
            Epsilon.custom(bad)
    # k is an exact int >= 1: "3" would fail the comparison, and 2.0 and
    # True would reach lcm_range.
    for bad in (0, "3", 2.0, True, None):
        with pytest.raises(InvalidEpsilonError):
            Epsilon.zero_plus(bad)
    # Only ints, Fractions and strings: Fraction(0.1) is not 1/10, and
    # True is not a threshold.
    for bad in (0.1, True, "abc", "1/0", None, (1, 2)):
        with pytest.raises(InvalidEpsilonError):
            Epsilon.custom(bad)
    for bad in (0.5, 1):
        with pytest.raises(InvalidEpsilonError):
            Epsilon(bad)
    assert Epsilon.custom(" 1/3 ").value == Fraction(1, 3) and Epsilon.custom(2).value == 2
    # A threshold is its value alone: every delta is checked for
    # quantization, whatever the threshold.
    with pytest.raises(TypeError):
        Epsilon(Fraction(1, 6), quantized=True)


def test_epsilon_resolve(fig1b):
    assert Epsilon.resolve("zero-plus", fig1b) == Epsilon.zero_plus(3)
    assert Epsilon.resolve("threshold", fig1b) == Epsilon.threshold(fig1b)
    assert Epsilon.resolve("28/3", fig1b) == Epsilon.custom(Fraction(28, 3))
    assert Epsilon.resolve(Fraction(5, 2), fig1b) == Epsilon.custom(Fraction(5, 2))
    for bad in ("abc", "-1", "0", "1/0", None, 0.1, True):
        with pytest.raises(InvalidEpsilonError):
            Epsilon.resolve(bad, fig1b)


def test_inverse_sequence():
    seq = [Swap(1, 2), Swap(3, 4)]
    assert inverse_sequence(seq) == [Swap(4, 3), Swap(2, 1)]
    assert inverse_sequence(inverse_sequence(seq)) == seq
    # Any iterable of pairs, as validate_sequence accepts; Swaps come back.
    for pairs in ([(1, 2), (3, 4)], iter(seq), (s for s in seq), ([1, 2], (3, 4))):
        inverse = inverse_sequence(pairs)
        assert inverse == [Swap(4, 3), Swap(2, 1)]
        assert all(type(s) is Swap for s in inverse)
    assert inverse_sequence([]) == []
    for bad in (None, 3, Swap, [(1, 2), (3,)], [(1, 2, 3)], [None], [5]):
        with pytest.raises(InvalidSwapError):
            inverse_sequence(bad)


def test_assert_quantized(fig1a):
    assert_quantized(fig1a, Fraction(5, 6))  # lcm(1..3) = 6
    with pytest.raises(Exception):
        assert_quantized(fig1a, Fraction(1, 7))


@pytest.mark.parametrize("selector", ["threshold", "1/2"])
def test_every_threshold_checks_quantization(fig1a, monkeypatch, selector):
    """Whatever the threshold, an executed or replayed delta that is not
    a multiple of 1/lcm(1..k) raises."""
    eps = Epsilon.resolve(selector, fig1a)
    unquantized = lambda *_: Fraction(10**9, 7)  # far above either threshold
    monkeypatch.setattr(pavls.search, "delta", unquantized)
    monkeypatch.setattr(pavls.core, "delta", unquantized)
    with pytest.raises(PavlsError, match="multiple of 1/lcm"):
        run(fig1a, {0, 1, 2}, eps, RULES["lex-better"], step_cap=1)
    with pytest.raises(PavlsError, match="multiple of 1/lcm"):
        validate_sequence(fig1a, {0, 1, 2}, [Swap(2, 3)], eps)


def test_validate_sequence_structural(fig1b):
    eps = Epsilon.zero_plus(3)
    cert = validate_sequence(fig1b, {0, 1, 2}, [Swap(2, 3), Swap(2, 4)], eps)
    assert not cert.structurally_valid
    assert cert.first_invalid_step == 1  # candidate 2 already swapped out
    assert cert.steps == 1
    cert = validate_sequence(fig1b, {0, 1, 2}, [Swap(2, -1)], eps)
    assert not cert.structurally_valid and cert.first_invalid_step == 0
    # A step that is not a pair of exact ints is invalid too; (True, 2)
    # would otherwise replay as Swap(1, 2).
    for bad in ((0,), (0.0, 2), (True, 2), (1, 2, 4), (1, "2"), None, 5, "12"):
        cert = validate_sequence(fig1b, {0, 1, 2}, [Swap(2, 3), bad, Swap(3, 4)], eps)
        assert not cert.structurally_valid and cert.first_invalid_step == 1
        assert cert.steps == 1 and cert.final_committee == frozenset({0, 1, 3})
    cert = validate_sequence(fig1b, {0, 1, 2}, [[2, 3], (1, 4)], eps)
    assert cert.structurally_valid and cert.final_committee == frozenset({0, 3, 4})


def test_validate_sequence_good_and_bad(fig1b):
    eps = Epsilon.zero_plus(3)
    good = validate_sequence(fig1b, {0, 1, 2}, [Swap(2, 3)], eps)
    assert good.structurally_valid and good.certified_good
    assert good.step_deltas == [Fraction(28, 3)]
    assert good.total_gain == Fraction(28, 3)
    assert good.final_committee == frozenset({0, 1, 3})
    # the reverse swap loses score: structurally fine, not certified
    bad = validate_sequence(fig1b, {0, 1, 3}, [Swap(3, 2)], eps)
    assert bad.structurally_valid and not bad.certified_good


# ---------------------------------------------------------------------------
# Property tests

_elections = st.integers(min_value=0, max_value=2**32 - 1)


def _random_election(seed: int) -> Election:
    rng = random.Random(seed)
    m = rng.randint(2, 9)
    k = rng.randint(1, m - 1)
    classes = tuple(
        BallotClass(
            frozenset(c for c in range(m) if rng.random() < 0.5),
            rng.randint(1, 5),
        )
        for _ in range(rng.randint(1, 12))
    )
    return Election(tuple(f"c{i}" for i in range(m)), classes, k)


@settings(max_examples=150, deadline=None)
@given(_elections)
def test_incremental_delta_equals_scratch(seed):
    e = _random_election(seed)
    rng = random.Random(seed + 1)
    k = e.committee_size
    committee = frozenset(rng.sample(range(e.m), k))
    state = SatisfactionState(e, committee)
    base = pav_score(e, committee)
    for a in committee:
        for b in range(e.m):
            if b in committee:
                continue
            assert delta(e, state, a, b) == pav_score(e, (committee - {a}) | {b}) - base


@settings(max_examples=150, deadline=None)
@given(_elections)
def test_delta_antisymmetry_and_quantization(seed):
    e = _random_election(seed)
    rng = random.Random(seed + 2)
    committee = frozenset(rng.sample(range(e.m), e.committee_size))
    outside = [c for c in range(e.m) if c not in committee]
    a = rng.choice(sorted(committee))
    b = rng.choice(outside)
    state = SatisfactionState(e, committee)
    d = delta(e, state, a, b)
    assert_quantized(e, d)
    apply_swap(state, Swap(a, b))
    assert delta(e, state, b, a) == -d


@settings(max_examples=100, deadline=None)
@given(_elections)
def test_weight_splitting_invariance(seed):
    # Splitting one weighted class into unit classes changes no score.
    e = _random_election(seed)
    expanded = tuple(
        BallotClass(bc.approves, 1)
        for bc in e.ballot_classes
        for _ in range(bc.weight)
    )
    e2 = Election(e.candidate_names, expanded, e.committee_size)
    rng = random.Random(seed + 3)
    committee = frozenset(rng.sample(range(e.m), e.committee_size))
    assert pav_score(e, committee) == pav_score(e2, committee)
    s1, s2 = SatisfactionState(e, committee), SatisfactionState(e2, committee)
    for a in committee:
        for b in range(e.m):
            if b not in committee:
                assert delta(e, s1, a, b) == delta(e2, s2, a, b)


_WEIGHTS = {
    "unit": st.just(1),
    "mixed": st.integers(min_value=1, max_value=6),
    # blocker-sized classes next to ordinary ones, as in hardened instances
    "blocker": st.one_of(st.integers(min_value=1, max_value=3),
                         st.integers(min_value=2**20, max_value=2**40)),
}


@st.composite
def _walks(draw):
    """An election, a start committee and a list of swap choices; k is 1,
    m-1 or anything in between, and an empty ballot may be added."""
    m = draw(st.integers(min_value=2, max_value=8))
    k = draw(st.one_of(st.sampled_from((1, m - 1)), st.integers(min_value=1, max_value=m - 1)))
    weight = _WEIGHTS[draw(st.sampled_from(tuple(_WEIGHTS)))]
    ballots = draw(st.lists(st.frozensets(st.integers(min_value=0, max_value=m - 1)),
                            min_size=1, max_size=10))
    if draw(st.booleans()):
        ballots.append(frozenset())
    classes = tuple(BallotClass(b, draw(weight)) for b in ballots)
    election = Election(tuple(f"c{i}" for i in range(m)), classes, k)
    committee = draw(st.permutations(range(m)))[:k]
    steps = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, m - k - 1)),
                          max_size=8))
    return election, committee, steps


def _check_cells(election, state):
    """The cell masks are disjoint, cover every class, and put each class
    in its weight group's cell at its hit count."""
    stride = election.committee_size + 2
    covered = 0
    for key, mask in state.cells.items():
        g, h = divmod(key, stride)
        assert mask and not covered & mask
        covered |= mask
        for ci, bc in enumerate(election.ballot_classes):
            if mask >> ci & 1:
                assert len(bc.approves & state.committee) == h
                assert bc.weight == election.weight_masks[g][0]
    assert covered == (1 << len(election.ballot_classes)) - 1


# Candidates 0 and 1 have the same approvers, so swapping one for the
# other gains exactly 0.
_ZERO_GAIN = Election(("c0", "c1", "c2"),
                      (BallotClass(frozenset({0, 1}), 2), BallotClass(frozenset({2}), 3)), 1)


@settings(max_examples=300, deadline=None)
@given(_walks())
@example(walk=(_ZERO_GAIN, (0,), [(0, 0)]))  # no class moves: every cell is skipped
def test_engine_walk_matches_scratch_scores(walk):
    """delta and apply_swap along a walk agree with pav_score recomputed
    from scratch at every step."""
    e, committee, steps = walk
    state = SatisfactionState(e, committee)
    current = frozenset(committee)
    score = pav_score(e, current)
    _check_cells(e, state)
    for i, j in steps:
        a = sorted(current)[i]
        b = [c for c in range(e.m) if c not in current][j]
        nxt = (current - {a}) | {b}
        new_score = pav_score(e, nxt)
        assert delta(e, state, a, b) == new_score - score
        apply_swap(state, Swap(a, b))
        current, score = nxt, new_score
        assert state.committee == current
        _check_cells(e, state)


@settings(max_examples=300, deadline=None)
@given(_walks())
def test_scan_sums_match_one_pass_delta(walk):
    """Given a scan's sums object, every pair's delta is an int numerator
    on the election's scale, equal to the one-pass delta of the state
    and the score change from scratch; G[b] - L[a] is a lower bound on
    it and G[b] - L'[a] an upper bound."""
    e, committee, steps = walk
    scale = e._cell_coefficients[0]
    state = SatisfactionState(e, committee)
    current = frozenset(committee)
    for step in steps + [None]:
        score = pav_score(e, current)
        outside = [c for c in range(e.m) if c not in current]
        pairs = [(a, b) for b in outside for a in sorted(current)]
        one_pass = {pair: delta(e, state, *pair) for pair in pairs}
        sums = _Scan(state.cells)
        for a, b in pairs:
            num = delta(e, sums, a, b)
            assert type(num) is int and Fraction(num, scale) == one_pass[a, b]
            assert one_pass[a, b] == pav_score(e, (current - {a}) | {b}) - score
            assert sums[b] - sums[a][0] <= num
            assert sums[b] - sums[a][1] >= num
        if step is None:
            break
        i, j = step
        a, b = sorted(current)[i], outside[j]
        apply_swap(state, Swap(a, b))
        current = (current - {a}) | {b}


def _bound(election, committee, a, b):
    """G[b] - L'[a] on the scale lcm(1..k+1), from the ballots: the sum
    of w/(h+1) over b's approvers minus that over a's approvers, where h
    counts the approved members of ``committee``."""
    scale = lcm_range(election.committee_size + 1)
    total = 0
    for bc in election.ballot_classes:
        share = bc.weight * scale // (len(bc.approves & committee) + 1)
        total += share * ((b in bc.approves) - (a in bc.approves))
    return total


@settings(max_examples=300, deadline=None)
@given(walk=_walks(), floors=st.lists(st.integers(-3, 3), min_size=1, max_size=4))
@example(walk=(_ZERO_GAIN, (0,), []), floors=[0, 1])  # a zero gain at its floor
def test_scan_floor_refutes_only_below_it(walk, floors):
    """A scan with a floor returns None exactly when G[b] - L'[a] is below
    the floor, so only for a pair whose exact value is below it too, and
    otherwise the int that a scan without a floor returns; its count of
    exact evaluations is the number of int returns.  The floor is set
    between calls, as best response raises it, around each pair's value
    and bound."""
    e, committee, steps = walk
    state = SatisfactionState(e, committee)
    current = frozenset(committee)
    for step in steps + [None]:
        outside = [c for c in range(e.m) if c not in current]
        plain, floored, returned = _Scan(state.cells), _Scan(state.cells, 0), 0
        for b in outside:
            for a in sorted(current):
                exact = delta(e, plain, a, b)
                bound = _bound(e, current, a, b)
                for base in (exact, bound):
                    for offset in floors:
                        floored.floor = base + offset
                        num = delta(e, floored, a, b)
                        assert (num is None) == (bound < floored.floor)
                        if num is None:
                            assert exact < floored.floor
                        else:
                            assert type(num) is int and num == exact
                            returned += 1
        assert floored.evals == returned
        assert plain.evals == len(outside) * len(current)
        if step is None:
            break
        i, j = step
        a, b = sorted(current)[i], outside[j]
        apply_swap(state, Swap(a, b))
        current = (current - {a}) | {b}


_SELECTORS = st.sampled_from(("zero-plus", "threshold")) | st.fractions(
    min_value=Fraction(1, 10**6), max_value=20)


def _reference_pick(e, state, eps, order, rule):
    """A picker's (swap, delta, comparisons) from a scan without a floor,
    in which every pair is evaluated: lex takes the first pair reaching
    epsilon, best the first maximizer if it reaches epsilon."""
    scale = e._cell_coefficients[0]
    need = -(-eps.value.numerator * scale // eps.value.denominator)
    candidates = range(e.m) if order is None else order
    scan = _Scan(state.cells)
    pairs = [(a, b) for b in candidates if b not in state.committee
             for a in candidates if a in state.committee]
    nums = [delta(e, scan, a, b) for a, b in pairs]
    if rule == "lex-better":
        i = next((i for i, num in enumerate(nums) if num >= need), None)
        used = len(pairs) if i is None else i + 1
    else:
        i = max(range(len(nums)), key=nums.__getitem__, default=None)  # first maximizer
        i, used = (None if i is None or nums[i] < need else i), len(pairs)
    if i is None:
        return None, None, used
    return Swap(*pairs[i]), Fraction(nums[i], scale), used


_PICKERS = {"lex-better": next_swap_lex, "best": next_swap_best}


@settings(max_examples=200, deadline=None)
@given(walk=_walks(), perm=st.none() | st.permutations(range(8)), selector=_SELECTORS)
def test_pickers_match_scans_without_a_floor(walk, perm, selector):
    """Both pickers, with their floors, return the (swap, delta,
    comparisons) of a reference scan in which no pair is refuted, each
    compared pair counted once.  Each comparison is one call of
    ``search.delta``, the name the bench tracer patches, and each scan
    adds to the state's count exactly the calls that returned a value."""
    e, committee, steps = walk
    eps = Epsilon.resolve(selector, e)
    order = None if perm is None else tuple(c for c in perm if c < e.m)
    state = SatisfactionState(e, committee)
    current = frozenset(committee)
    returns = []

    def counted(*args):
        returns.append(pavls.core.delta(*args))
        return returns[-1]

    for step in steps + [None]:
        for rule, pick in _PICKERS.items():
            expected = _reference_pick(e, state, eps, order, rule)
            before = state.delta_evals
            returns.clear()
            with patch.object(pavls.search, "delta", counted):
                assert pick(e, state, eps, order) == expected
            assert len(returns) == expected[2]
            assert sum(num is not None for num in returns) == state.delta_evals - before
            assert (expected[0] is not None) <= state.delta_evals - before
        if step is None:
            break
        i, j = step
        a = sorted(current)[i]
        b = [c for c in range(e.m) if c not in current][j]
        apply_swap(state, Swap(a, b))
        current = (current - {a}) | {b}


@settings(max_examples=150, deadline=None)
@given(walk=_walks(), selector=_SELECTORS, rule=st.sampled_from(tuple(RULES)))
def test_runs_count_exact_evaluations_apart(walk, selector, rule):
    """A run's swaps, deltas and comparisons are those of a run whose
    scans refute nothing; its exact evaluations are at most its
    comparisons and at least its swaps, each executed swap's pair having
    been evaluated exactly."""
    e, committee, _ = walk
    eps = Epsilon.resolve(selector, e)
    trace = run(e, committee, eps, RULES[rule], step_cap=50)
    assert trace.swaps <= trace.delta_evals <= trace.comparisons
    state = SatisfactionState(e, committee)
    swaps, deltas, comparisons = [], [], 0
    while len(swaps) < 50:
        swap, d, used = _reference_pick(e, state, eps, None, rule)
        comparisons += used
        if swap is None:
            break
        apply_swap(state, swap)
        swaps.append(swap)
        deltas.append(d)
    assert (trace.executed_swaps, trace.step_deltas, trace.comparisons) == (
        swaps, deltas, comparisons)


@pytest.mark.parametrize("selector", ["zero-plus", "threshold", "28/3", "1/2"])
@settings(max_examples=100, deadline=None)
@given(walk=_walks(), perm=st.none() | st.permutations(range(8)))
@example(walk=(_ZERO_GAIN, (0,), []), perm=None)
@example(walk=(_ZERO_GAIN, (0,), [(0, 0), (0, 0)]), perm=None)
@example(walk=(_ZERO_GAIN, (0,), [(0, 1)]), perm=None)  # one step, gaining 1
def test_integer_threshold_tests_match_fraction_reference(selector, walk, perm):
    """The pickers' and the replay's integer tests agree with plain
    Fraction comparisons, in index order or in a drawn candidate order;
    given a scan's sums object delta returns each value's int numerator
    on the election's scale (zero included), and the pickers a Fraction."""
    e, committee, steps = walk
    scale = e._cell_coefficients[0]
    eps = Epsilon.resolve(selector, e)
    # The drawn permutation of range(8) restricted to range(m), m <= 8.
    order = None if perm is None else tuple(c for c in perm if c < e.m)
    candidates = range(e.m) if order is None else order
    state = SatisfactionState(e, committee)
    current = frozenset(committee)
    swaps, gains = [], []
    for step in steps + [None]:
        # Reference scan in lexicographic (incoming, outgoing) order.
        score = pav_score(e, current)
        found, used, best, total = None, 0, None, 0
        reference = {}
        for b in (c for c in candidates if c not in current):
            for a in (c for c in candidates if c in current):
                d = reference[a, b] = pav_score(e, (current - {a}) | {b}) - score
                assert delta(e, state, a, b) == d
                total += 1
                if best is None or d > best[1]:
                    best = (Swap(a, b), d)
                if found is None:
                    used += 1
                    if d >= eps.value:
                        found = (Swap(a, b), d)
        scan = _Scan(state.cells)
        for (a, b), d in reference.items():
            num = delta(e, scan, a, b)
            assert type(num) is int and Fraction(num, scale) == d
            assert delta(e, scan, a, b) == num
        picked = next_swap_lex(e, state, eps, order)
        assert picked == (*(found or (None, None)), used)
        assert picked[1] is None or type(picked[1]) is Fraction
        if best is None or best[1] < eps.value:
            best = (None, None)
        picked = next_swap_best(e, state, eps, order)
        assert picked == (*best, total)
        assert picked[1] is None or type(picked[1]) is Fraction
        if step is None:
            break
        i, j = step
        a = sorted(current)[i]
        b = [c for c in range(e.m) if c not in current][j]
        gains.append(pav_score(e, (current - {a}) | {b}) - score)
        swaps.append(Swap(a, b))
        apply_swap(state, swaps[-1])
        current = (current - {a}) | {b}
    cert = validate_sequence(e, committee, swaps, eps)
    assert cert.structurally_valid and cert.step_deltas == gains
    assert cert.total_gain == sum(gains, Fraction(0))
    assert cert.certified_good == all(d >= eps.value for d in gains)
    # The replay's test at its boundary: epsilon at each distinct positive
    # step gain certifies that step, and one scale unit above it does not.
    for g in {d for d in gains if d > 0}:
        for threshold in (g, g + Fraction(1, scale)):
            cert = validate_sequence(e, committee, swaps, Epsilon(threshold))
            assert cert.certified_good == all(d >= threshold for d in gains)


# ---------------------------------------------------------------------------
# Entry points under junk arguments

_E5 = Election(tuple(f"c{i}" for i in range(5)),
               (BallotClass(frozenset({0, 2}), 3), BallotClass(frozenset({1, 3, 4}), 2),
                BallotClass(frozenset({4}), 1)), 2)
_FOREIGN = Election(_E5.candidate_names, (BallotClass(frozenset({3}), 7),), 2)


def _scanned_state():
    """A state of _E5 that a picker has just scanned."""
    state = SatisfactionState(_E5, (0, 1))
    next_swap_best(_E5, state, Epsilon.zero_plus(2))
    return state


def _lex_stopped_state():
    """A state of _E5 whose lex scan returned at its first comparison."""
    state = SatisfactionState(_E5, (3, 4))
    assert next_swap_lex(_E5, state, Epsilon.zero_plus(2))[::2] == (Swap(3, 0), 1)
    return state


@pytest.mark.parametrize("make_state", [_lex_stopped_state, _scanned_state])
def test_delta_on_a_state_is_always_checked(make_state):
    # Whatever scans ran on it, a state passed to delta is checked and
    # gives a Fraction: no scan leaves it in an unchecked mode.
    state = make_state()
    a = min(state.committee)
    b, other = [c for c in range(_E5.m) if c not in state.committee][:2]
    with pytest.raises(InvalidSwapError, match="not in committee"):
        delta(_E5, state, b, other)
    with pytest.raises(InvalidSwapError, match="invalid for committee"):
        delta(_E5, state, a, 7)
    with pytest.raises(PavlsError, match="not a SatisfactionState of this election"):
        delta(_FOREIGN, state, a, b)
    with pytest.raises(PavlsError, match="not a SatisfactionState of this election"):
        delta(_E5, SatisfactionState(_FOREIGN, state.committee), a, b)
    d = delta(_E5, state, a, b)
    committee = frozenset(state.committee)
    assert type(d) is Fraction
    assert d == pav_score(_E5, (committee - {a}) | {b}) - pav_score(_E5, committee)


# States are built per draw, since apply_swap changes them.
_junk = (st.sampled_from((-1, 99, 2.0, True, None, "1", Fraction(1, 2), (0,), (0, 1, 2)))
         | st.builds(lambda: SatisfactionState(_FOREIGN, (0, 1))))
_candidates = st.integers(0, 4)
_swaps = st.builds(Swap, _candidates, _candidates)
_valid = {
    "state": (st.builds(SatisfactionState, st.just(_E5), st.sampled_from(((0, 1), (2, 4))))
              | st.builds(_scanned_state)),
    "candidate": _candidates,
    "swap": _swaps,
    "committee": st.sampled_from(((0, 1), [2, 4], frozenset({1, 3}))),
    "epsilon": st.sampled_from((Epsilon.zero_plus(2), Epsilon.custom(1), Epsilon.threshold(_E5))),
    "order": st.none() | st.permutations(range(5)).map(tuple),
    "rule": st.sampled_from((RULES["best"], RULES["lex-better"],
                             LexicographicBetterResponse((4, 3, 2, 1, 0)))),
    "step_cap": st.none() | st.integers(0, 3),
    "sequence": st.lists(_swaps | _junk, max_size=4),
}
# name -> (call on _E5, the kinds of its other arguments)
_ENGINE_ENTRY_POINTS = {
    "delta": (lambda *a: delta(_E5, *a), ("state", "candidate", "candidate")),
    "apply_swap": (apply_swap, ("state", "swap")),
    "next_swap_lex": (lambda *a: next_swap_lex(_E5, *a), ("state", "epsilon", "order")),
    "next_swap_best": (lambda *a: next_swap_best(_E5, *a), ("state", "epsilon", "order")),
    "run": (lambda *a: run(_E5, *a), ("committee", "epsilon", "rule", "step_cap")),
    "validate_sequence": (lambda *a: validate_sequence(_E5, *a),
                          ("committee", "sequence", "epsilon")),
    "is_locally_optimal": (lambda *a: is_locally_optimal(_E5, *a), ("committee", "epsilon")),
    "pav_score": (lambda *a: pav_score(_E5, *a), ("committee",)),
    "SatisfactionState": (lambda *a: SatisfactionState(_E5, *a), ("committee",)),
    "inverse_sequence": (inverse_sequence, ("sequence",)),
}


def _exact(value) -> bool:
    """Only exact values: ints and Fractions (bools as flags only), and
    candidates that are exact ints, nested in tuples, lists and records."""
    if isinstance(value, SatisfactionState):
        return _exact(frozenset(value.committee))
    if isinstance(value, (Swap, set, frozenset)):
        return all(type(c) is int for c in value)
    if isinstance(value, (tuple, list)):
        return all(map(_exact, value))
    if is_dataclass(value):
        return all(_exact(getattr(value, f.name)) for f in fields(value))
    return value is None or type(value) in (bool, int, Fraction)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_engine_entry_points_raise_only_pavls_errors(data):
    # Every call either returns exact values or raises a PavlsError; any
    # other exception fails the test.  Each argument is valid or junk.
    name = data.draw(st.sampled_from(sorted(_ENGINE_ENTRY_POINTS)))
    call, kinds = _ENGINE_ENTRY_POINTS[name]
    args = data.draw(st.tuples(*(_valid[kind] | _junk for kind in kinds)))
    committee = frozenset(getattr(args[0], "committee", ()))
    try:
        result = call(*args)
    except PavlsError:
        return
    assert _exact(result), (name, args, result)
    if name == "delta":  # a returned gain is the true one
        a, b = args[1:]
        assert result == pav_score(_E5, (committee - {a}) | {b}) - pav_score(_E5, committee)


# Each call read an attribute of a non-Election first and raised a bare
# AttributeError; the lex order makes run read election.m.
_ON_ELECTION = {
    "run": lambda e: run(e, (0, 1), Epsilon.zero_plus(2), RULES["best"]),
    "run(order)": lambda e: run(e, (0, 1), Epsilon.zero_plus(2),
                                LexicographicBetterResponse((4, 3, 2, 1, 0))),
    "validate_sequence": lambda e: validate_sequence(e, (0, 1), [(0, 2)], Epsilon.zero_plus(2)),
    "SatisfactionState": lambda e: SatisfactionState(e, (0, 1)),
    "pav_score": lambda e: pav_score(e, (0, 1)),
    "validate_committee": lambda e: validate_committee(e, (0, 1)),
    "is_locally_optimal": lambda e: is_locally_optimal(e, (0, 1), Epsilon.zero_plus(2)),
    "brute_force_optimum": brute_force_optimum,
    "select_initial_committee": select_initial_committee,
    "Epsilon.threshold": Epsilon.threshold,
    "Epsilon.resolve": lambda e: Epsilon.resolve("zero-plus", e),
}


@pytest.mark.parametrize("name", sorted(_ON_ELECTION))
def test_non_election_is_refused(name):
    call = _ON_ELECTION[name]
    for junk in (None, "e", _E5.ballot_classes, SatisfactionState(_E5, (0, 1))):
        with pytest.raises(InvalidElectionError, match="not an Election"):
            call(junk)
    call(_E5)
