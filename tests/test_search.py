from fractions import Fraction

import pytest

from pavls import (
    BallotClass,
    BestResponse,
    Election,
    Epsilon,
    InvalidCommitteeError,
    InvalidEpsilonError,
    InvalidRuleError,
    InvalidStepCapError,
    InvalidSwapError,
    LexicographicBetterResponse,
    PavlsError,
    PivotRule,
    Swap,
    delta,
    is_locally_optimal,
    pav_score,
    run,
    validate_committee,
    validate_sequence,
)
from pavls.core import SatisfactionState
from pavls.search import next_swap_best, next_swap_lex


def test_lex_takes_first_qualifying(fig1b):
    # From {c1,c2,c3} every (out, c4) swap gains 28/3; lex scans incoming
    # candidates first, so the first evaluated pair (out=0, in=3) wins.
    state = SatisfactionState(fig1b, {0, 1, 2})
    swap, d, used = next_swap_lex(fig1b, state, Epsilon.zero_plus(3))
    assert swap == Swap(0, 3)
    assert d == Fraction(28, 3)
    assert used == 1


def test_best_scans_everything(fig1b):
    state = SatisfactionState(fig1b, {0, 1, 2})
    swap, d, used = next_swap_best(fig1b, state, Epsilon.zero_plus(3))
    assert used == 3 * 8  # k(m-k) evaluations, always
    assert d == Fraction(28, 3)
    assert swap == Swap(0, 3)  # first maximizer in (in, out) order


def test_epsilon_boundary(fig1b):
    # A delta equal to epsilon qualifies; half a scale unit above the
    # largest delta (an epsilon off the delta scale lcm(1..k+1)) none does.
    # Candidate 5 goes first, so lex fails three pairs before (0, 3).
    order = (5, 3, 4, 0, 1, 2, 6, 7, 8, 9, 10)
    top = Fraction(28, 3)
    for picker, used in ((next_swap_lex, 4), (next_swap_best, 24)):
        state = SatisfactionState(fig1b, {0, 1, 2})
        assert picker(fig1b, state, Epsilon(top), order) == (Swap(0, 3), top, used)
        above = Epsilon(top + Fraction(1, 2 * fig1b._cell_coefficients[0]))
        assert picker(fig1b, state, above, order) == (None, None, 24)


def test_custom_order_changes_selection(fig1b):
    state = SatisfactionState(fig1b, {0, 1, 2})
    order = tuple([4, 3] + list(range(3)) + list(range(5, 11)))
    swap, d, _ = next_swap_lex(fig1b, state, Epsilon.zero_plus(3), order)
    assert swap == Swap(0, 4)  # candidate 4 now scanned before 3
    trace = run(fig1b, {0, 1, 2}, Epsilon.zero_plus(3), LexicographicBetterResponse(order),
                step_cap=1)
    assert trace.executed_swaps == [Swap(0, 4)]
    with pytest.raises(ValueError):
        LexicographicBetterResponse((0, 0, 1))
    with pytest.raises(ValueError):
        BestResponse((1, 2))
    with pytest.raises(ValueError):  # a permutation, but of range(3), not range(11)
        run(fig1b, {0, 1, 2}, Epsilon.zero_plus(3), BestResponse((2, 0, 1)))


def test_rule_input_errors_are_pavls_errors(fig1b):
    with pytest.raises(PavlsError):
        LexicographicBetterResponse((0, 0, 1))
    # 0.0 and True pass a permutation test as 0 and 1; a scan reads the
    # order twice, so an iterator would scan nothing the second time.
    for order in ((0.0, 1, 2, 3), (True, 0, 2, 3), 5, iter(range(4))):
        with pytest.raises(InvalidRuleError):
            LexicographicBetterResponse(order)
    with pytest.raises(PavlsError):
        run(fig1b, {0, 1, 2}, Epsilon.zero_plus(3), BestResponse((2, 0, 1)))
    # A bare PivotRule only holds an order: it raised NotImplementedError,
    # and with a step cap of 0 it returned a trace.
    for not_a_rule in ("best", None, BestResponse, PivotRule()):
        with pytest.raises(InvalidRuleError):
            run(fig1b, {0, 1, 2}, Epsilon.zero_plus(3), not_a_rule)
    with pytest.raises(InvalidRuleError):
        run(fig1b, {0, 1, 2}, Epsilon.zero_plus(3), PivotRule(), step_cap=0)


def test_pickers_check_order_and_state():
    # From {0}, Swap(0, 3) gains 4; a scan under the partial order
    # (0, 1, 2) never meets candidate 3 and would report no swap.
    e = Election(("c0", "c1", "c2", "c3"),
                 (BallotClass(frozenset({3}), 5), BallotClass(frozenset({0}), 1)), 1)
    eps = Epsilon.zero_plus(1)
    for picker in (next_swap_lex, next_swap_best):
        for order in ((0, 1, 2), (0, 1, 1, 2), (0.0, 1, 2, 3), (0, 1, 2, 3, 99), iter(range(4))):
            with pytest.raises(InvalidRuleError):
                picker(e, SatisfactionState(e, {0}), eps, order)
        swap, gain, _ = picker(e, SatisfactionState(e, {0}), eps, (3, 2, 1, 0))
        assert (swap, gain) == (Swap(0, 3), 4)
        other = Election(e.candidate_names, (BallotClass(frozenset({2}), 5),), 1)
        for state in (SatisfactionState(other, {0}), None):
            with pytest.raises(PavlsError):
                picker(e, state, eps)
        # The scan ends with the picker, so a direct delta call is checked
        # again: True would pass for candidate 1.
        state = SatisfactionState(e, {1})
        picker(e, state, eps)
        with pytest.raises(InvalidSwapError):
            delta(e, state, True, 3)


def test_threshold_must_be_an_epsilon(fig1b):
    # A bare Fraction, string or float is refused up front, not met by an
    # AttributeError halfway through.
    for bad in (Fraction(1, 2), "1/2", 0.5):
        for picker in (next_swap_lex, next_swap_best):
            with pytest.raises(InvalidEpsilonError):
                picker(fig1b, SatisfactionState(fig1b, {0, 1, 2}), bad)
        with pytest.raises(InvalidEpsilonError):
            run(fig1b, {0, 1, 2}, bad, BestResponse())
        with pytest.raises(InvalidEpsilonError):
            validate_sequence(fig1b, {0, 1, 2}, [Swap(2, 3)], bad)
        with pytest.raises(InvalidEpsilonError):
            is_locally_optimal(fig1b, {0, 1, 2}, bad)


def test_run_lex_terminates_at_local_optimum(fig1b):
    eps = Epsilon.zero_plus(3)
    trace = run(fig1b, {0, 1, 2}, eps, LexicographicBetterResponse())
    assert trace.terminated
    assert trace.swaps >= 1
    # final committee admits no improving swap
    state = SatisfactionState(fig1b, trace.final_committee)
    swap, _, _ = next_swap_lex(fig1b, state, eps)
    assert swap is None
    assert trace.total_gain() == (
        pav_score(fig1b, trace.final_committee) - pav_score(fig1b, {0, 1, 2})
    )


def test_run_best_same_optimum_fewer_or_equal_swaps(fig1b):
    eps = Epsilon.zero_plus(3)
    lex = run(fig1b, {0, 1, 2}, eps, LexicographicBetterResponse())
    best = run(fig1b, {0, 1, 2}, eps, BestResponse())
    assert best.terminated
    assert pav_score(fig1b, best.final_committee) >= pav_score(fig1b, {0, 1, 2})
    assert best.swaps <= lex.swaps
    assert pav_score(fig1b, best.final_committee) == pav_score(fig1b, lex.final_committee)
    for trace in (lex, best):
        optimal, _, _ = is_locally_optimal(fig1b, trace.final_committee, eps)
        assert optimal


def test_run_epsilon_10_is_fixpoint(fig1b):
    eps = Epsilon.custom(Fraction(10))
    for rule in (LexicographicBetterResponse(), BestResponse()):
        trace = run(fig1b, {0, 1, 2}, eps, rule)
        assert trace.terminated
        assert trace.swaps == 0
        assert trace.final_committee == frozenset({0, 1, 2})


def test_step_cap(fig1b):
    trace = run(fig1b, {0, 1, 2}, Epsilon.zero_plus(3),
                LexicographicBetterResponse(), step_cap=0)
    assert not trace.terminated
    assert trace.swaps == 0


def test_negative_step_cap_rejected(fig1b):
    # A cap is None or an exact int >= 0: 1.5 and True would pass for a
    # cap of 1, and "3" would fail the comparison with a TypeError.
    for rule in (LexicographicBetterResponse(), BestResponse()):
        for cap in (-5, "3", 1.5, True, Fraction(2)):
            with pytest.raises(InvalidStepCapError):
                run(fig1b, {0, 1, 2}, Epsilon.zero_plus(3), rule, step_cap=cap)


def test_committee_members_must_be_exact_ints(fig1b):
    # A float or a string would fail deep in the engine, True would pass
    # for candidate 1, and the oracle would report a float witness.
    eps = Epsilon.zero_plus(3)
    for bad in ([0.0, 1, 2], ["a", 1, 2], [True, 0, 2], [1.0, 0, 2]):
        with pytest.raises(InvalidCommitteeError, match="must be ints"):
            validate_committee(fig1b, bad)
        with pytest.raises(InvalidCommitteeError):
            run(fig1b, bad, eps, LexicographicBetterResponse())
        with pytest.raises(InvalidCommitteeError):
            is_locally_optimal(fig1b, bad, eps)
        with pytest.raises(InvalidCommitteeError):
            validate_sequence(fig1b, bad, [], eps)
    # Not an iterable of hashable members: frozenset() would raise TypeError.
    for bad in (0, None, [[0], 1, 2]):
        for check in (
            lambda: validate_committee(fig1b, bad),
            lambda: run(fig1b, bad, eps, LexicographicBetterResponse()),
            lambda: pav_score(fig1b, bad),
            lambda: validate_sequence(fig1b, bad, [], eps),
            lambda: is_locally_optimal(fig1b, bad, eps),
            lambda: SatisfactionState(fig1b, bad),
        ):
            with pytest.raises(InvalidCommitteeError, match="iterable of ints"):
                check()
    assert validate_committee(fig1b, [2, 0, 1]) == frozenset({0, 1, 2})


def test_committee_repeated_member_is_refused(fig1b):
    # With k = 3, [0, 0, 1, 2] was read as {0, 1, 2} and accepted.
    eps = Epsilon.zero_plus(3)
    for bad in ([0, 0, 1, 2], [2, 1, 0, 2], [1, 2, 1, 0]):
        for check in (
            lambda: validate_committee(fig1b, bad),
            lambda: run(fig1b, iter(bad), eps, LexicographicBetterResponse()),
            lambda: pav_score(fig1b, bad),
            lambda: validate_sequence(fig1b, bad, [], eps),
            lambda: is_locally_optimal(fig1b, bad, eps),
            lambda: SatisfactionState(fig1b, bad),
        ):
            with pytest.raises(InvalidCommitteeError, match="twice"):
                check()
    # A repeat is named even when the distinct members are too few.
    with pytest.raises(InvalidCommitteeError, match="lists member 0 twice"):
        validate_committee(fig1b, [0, 0, 1])
    assert validate_committee(fig1b, iter([2, 0, 1])) == frozenset({0, 1, 2})


def test_scripted_replay_success(fig1b):
    cert = validate_sequence(fig1b, {0, 1, 2}, [Swap(2, 3)], Epsilon.zero_plus(3))
    assert cert.certified_good
    assert cert.final_committee == frozenset({0, 1, 3})
    assert cert.step_deltas == [Fraction(28, 3)]
    assert cert.steps == 1


def test_scripted_replay_failures(fig1b):
    eps = Epsilon.zero_plus(3)
    cert = validate_sequence(fig1b, {0, 1, 2}, [Swap(3, 4)], eps)  # 3 not seated
    assert not cert.structurally_valid
    assert cert.first_invalid_step == 0
    # second step undoes the first: negative delta, below epsilon
    cert = validate_sequence(fig1b, {0, 1, 2}, [Swap(2, 3), Swap(3, 2)], eps)
    assert cert.structurally_valid
    assert cert.certified_good is False
    assert cert.step_deltas[1] < 0


def test_comparisons_include_final_scan():
    # One unanimous candidate outside a 1-seat committee: one improving
    # swap found on the first evaluation, then a full certifying scan.
    e = Election(("a", "b"), (BallotClass(frozenset({1}), 3),), 1)
    trace = run(e, {0}, Epsilon.zero_plus(1), LexicographicBetterResponse())
    assert trace.swaps == 1
    assert trace.comparisons == 2  # the improving eval + the final scan


@pytest.mark.parametrize("order", [None, (2, 0, 1)])
def test_full_committee_has_no_swap(order):
    # k = m seats every candidate, so no row has an incoming candidate:
    # both pickers compare nothing and evaluate nothing, and a run stops
    # at once under either rule.
    e = Election(("a", "b", "c"), (BallotClass(frozenset({0, 1}), 2),
                                   BallotClass(frozenset({2}), 1)), 3)
    eps = Epsilon.zero_plus(3)
    state = SatisfactionState(e, {0, 1, 2})
    for picker in (next_swap_lex, next_swap_best):
        assert picker(e, state, eps, order) == (None, None, 0)
        assert state.delta_evals == 0
    for rule in (LexicographicBetterResponse(order), BestResponse(order)):
        trace = run(e, {0, 1, 2}, eps, rule)
        assert trace.terminated
        assert (trace.swaps, trace.comparisons, trace.delta_evals) == (0, 0, 0)
        assert trace.final_committee == {0, 1, 2}
