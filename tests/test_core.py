import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavls import (
    BallotClass,
    Election,
    Epsilon,
    InvalidCommitteeError,
    InvalidEpsilonError,
    InvalidSwapError,
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


def test_committee_size_plumbing():
    e = Election(("a", "b"), (BallotClass(frozenset({0}), 1),), None)
    with pytest.raises(InvalidCommitteeError):
        e.require_committee_size()
    assert e.with_committee_size(2).require_committee_size() == 2
    with pytest.raises(InvalidCommitteeError):
        validate_committee(e.with_committee_size(1), {0, 1})


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
    assert state.hits == [2, 1]
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
