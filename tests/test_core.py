import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavls import (
    BallotClass,
    Election,
    Epsilon,
    InvalidCommitteeError,
    InvalidElectionError,
    InvalidEpsilonError,
    InvalidSwapError,
    PavlsError,
    Swap,
    delta,
    harmonic,
    inverse_sequence,
    lcm_range,
    pav_score,
    validate_committee,
    validate_sequence,
)
from pavls.core import SatisfactionState, apply_swap, assert_quantized


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


def test_committee_size_plumbing():
    e = Election(("a", "b"), (BallotClass(frozenset({0}), 1),), None)
    with pytest.raises(InvalidCommitteeError):
        e.require_committee_size()
    assert e.with_committee_size(2).require_committee_size() == 2
    with pytest.raises(InvalidCommitteeError):
        validate_committee(e.with_committee_size(1), {0, 1})


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
    assert e3._delta_scale[0] == 12 and e._delta_scale[0] == 6
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


def test_apply_swap_updates_hits(fig1a):
    state = SatisfactionState(fig1a, {0, 1, 2})
    apply_swap(state, Swap(2, 3))
    assert state.committee == {0, 1, 3}
    # class 0 approves two members (0, 1), class 1 approves one (3)
    assert state.levels == {2: 0b01, 1: 0b10}
    assert state.score() == pav_score(fig1a, {0, 1, 3})
    with pytest.raises(InvalidSwapError):
        apply_swap(state, Swap(2, 4))
    assert state.committee == {0, 1, 3}  # untouched on failure


def test_epsilon_kinds(fig1b):
    assert Epsilon.threshold(fig1b).value == Fraction(90, 9) == 10
    assert Epsilon.zero_plus(3).value == Fraction(1, 6)
    assert Epsilon.custom(Fraction(5, 2)).value == Fraction(5, 2)
    with pytest.raises(ValueError):
        Epsilon.custom(Fraction(0))


def test_epsilon_resolve(fig1b):
    assert Epsilon.resolve("zero-plus", fig1b) == Epsilon.zero_plus(3)
    assert Epsilon.resolve("threshold", fig1b) == Epsilon.threshold(fig1b)
    assert Epsilon.resolve("28/3", fig1b) == Epsilon.custom(Fraction(28, 3))
    assert Epsilon.resolve(Fraction(5, 2), fig1b) == Epsilon.custom(Fraction(5, 2))
    for bad in ("abc", "-1", "0", "1/0", None):
        with pytest.raises(InvalidEpsilonError):
            Epsilon.resolve(bad, fig1b)


def test_inverse_sequence():
    seq = [Swap(1, 2), Swap(3, 4)]
    assert inverse_sequence(seq) == [Swap(4, 3), Swap(2, 1)]
    assert inverse_sequence(inverse_sequence(seq)) == seq


def test_assert_quantized(fig1a):
    assert_quantized(fig1a, Fraction(5, 6))  # lcm(1..3) = 6
    with pytest.raises(Exception):
        assert_quantized(fig1a, Fraction(1, 7))


def test_validate_sequence_structural(fig1b):
    eps = Epsilon.zero_plus(3)
    cert = validate_sequence(fig1b, {0, 1, 2}, [Swap(2, 3), Swap(2, 4)], eps)
    assert not cert.structurally_valid
    assert cert.first_invalid_step == 1  # candidate 2 already swapped out
    assert cert.steps == 1
    cert = validate_sequence(fig1b, {0, 1, 2}, [Swap(2, -1)], eps)
    assert not cert.structurally_valid and cert.first_invalid_step == 0


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


def _check_levels(election, state):
    """The level masks are disjoint, cover every class, and put each class
    at its hit count."""
    covered = 0
    for h, mask in state.levels.items():
        assert mask and not covered & mask
        covered |= mask
        for ci, bc in enumerate(election.ballot_classes):
            if mask >> ci & 1:
                assert len(bc.approves & state.committee) == h
    assert covered == (1 << len(election.ballot_classes)) - 1


@settings(max_examples=300, deadline=None)
@given(_walks())
def test_engine_walk_matches_scratch_scores(walk):
    """delta, apply_swap and score along a walk agree with pav_score
    recomputed from scratch at every step."""
    e, committee, steps = walk
    state = SatisfactionState(e, committee)
    current = frozenset(committee)
    score = pav_score(e, current)
    assert state.score() == score
    _check_levels(e, state)
    for i, j in steps:
        a = sorted(current)[i]
        b = [c for c in range(e.m) if c not in current][j]
        nxt = (current - {a}) | {b}
        new_score = pav_score(e, nxt)
        assert delta(e, state, a, b) == new_score - score
        apply_swap(state, Swap(a, b))
        current, score = nxt, new_score
        assert state.committee == current
        assert state.score() == score
        _check_levels(e, state)
