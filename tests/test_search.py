from fractions import Fraction

import pytest

from pavls import (
    BallotClass,
    BestResponse,
    Election,
    Epsilon,
    InvalidStepCapError,
    LexicographicBetterResponse,
    Swap,
    pav_score,
    run,
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
    assert best.swaps <= lex.swaps or best.swaps >= 1


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
    for rule in (LexicographicBetterResponse(), BestResponse()):
        with pytest.raises(InvalidStepCapError):
            run(fig1b, {0, 1, 2}, Epsilon.zero_plus(3), rule, step_cap=-5)


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
