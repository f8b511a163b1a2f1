"""Acceptance suite: one test per headline criterion.

Each test prints a single [PASS] line on success and enforces its
runtime budget.  Expensive artifacts produced here (CSV renderings of
the certified runs) are cached so the final determinism criterion can
regenerate them from scratch and compare bytes.
"""

import time
from fractions import Fraction

import pytest

from pavls import (
    BallotClass,
    Election,
    Epsilon,
    ExperimentConfig,
    HardenedParams,
    ImpartialCulture,
    LayeredParams,
    LexicographicBetterResponse,
    SamplerConfig,
    Swap,
    brute_force_optimum,
    certify_hardened,
    delta,
    delta_formula,
    e_election,
    e_t_election,
    gain_holds,
    inverse_sequence,
    is_locally_optimal,
    min_k_gain_search,
    pav_score,
    run,
    run_experiment,
    validate_sequence,
    warmup_election,
    warmup_initial_committee,
    warmup_sequence,
    write_csv,
    x_length,
)
from pavls.constructions import iter_x_sequence
from pavls.core import SatisfactionState
from pavls.harness import select_initial_committee
from pavls.samplers import sample

_artifacts: dict[str, str] = {}


def _elapsed_ok(name, started, budget):
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"{name} took {elapsed:.1f}s, budget {budget}s"
    return elapsed


def _fig1a():
    classes = (
        BallotClass(frozenset({0, 1, 2}), 60),
        BallotClass(frozenset({3, 4}), 30),
    )
    return Election(("c1", "c2", "c3", "c4", "c5"), classes, 3)


def _fig1b():
    classes = [
        BallotClass(frozenset({0, 1, 2}), 56),
        BallotClass(frozenset({3, 4}), 28),
    ] + [BallotClass(frozenset({5 + i}), 1) for i in range(6)]
    return Election(tuple(f"c{i}" for i in range(1, 12)), tuple(classes), 3)


def test_criterion_01_introductory_instances():
    started = time.perf_counter()
    a, b = _fig1a(), _fig1b()
    assert brute_force_optimum(a).optimum_score == 120
    assert pav_score(b, {0, 1, 2}) == Fraction(308, 3)
    assert pav_score(b, {0, 1, 3}) == 112
    state = SatisfactionState(b, {0, 1, 2})
    assert delta(b, state, 2, 3) == Fraction(28, 3)
    assert Epsilon.threshold(b).value == 10
    flag, _, _ = is_locally_optimal(b, {0, 1, 2}, Epsilon.custom(Fraction(10)))
    assert flag
    flag, witness, gain = is_locally_optimal(b, {0, 1, 2}, Epsilon.zero_plus(3))
    assert not flag and witness.in_candidate == 3 and gain == Fraction(28, 3)
    elapsed = _elapsed_ok("criterion 1", started, 1.0)
    print(f"\n[PASS] criterion 1: introductory instances exact ({elapsed:.2f}s)")


def test_criterion_02_pivotal_swap_equality():
    started = time.perf_counter()
    for k in range(2, 13):
        for j in range(1, k):
            lab = e_election(j, k)
            w = lab.committee(*(f"d{i}" for i in range(1, k - 1)), "x", "a")
            state = SatisfactionState(lab.election, w)
            got = delta(lab.election, state, lab.candidate("a"), lab.candidate("b"))
            assert got == delta_formula(j, k), (j, k)
            for bc in lab.election.ballot_classes:
                assert len(bc.approves & w) >= k - (j + 1), (j, k)
    elapsed = _elapsed_ok("criterion 2", started, 10.0)
    print(f"\n[PASS] criterion 2: pivotal swap gain and satisfaction floor, "
          f"all 1<=j<k<=12 ({elapsed:.2f}s)")


def test_criterion_03_mirror_and_chain_properties():
    started = time.perf_counter()
    # counterpart mirror properties on the atomic family
    for k in range(2, 13):
        for j in range(1, min(7, k)):
            lab = e_election(j, k)
            e = lab.election
            dummies = {lab.candidate(f"d{i}") for i in range(1, k - 1)}
            x, y = lab.candidate("x"), lab.candidate("y")
            a, b = lab.candidate("a"), lab.candidate("b")
            assert e.n == 2 ** j
            for v, w in lab.counterpart.items():
                av, aw = e.ballot_classes[v].approves, e.ballot_classes[w].approves
                assert av & dummies == aw & dummies
                assert (a in av) == (b in aw) and (b in av) == (a in aw)
                assert (x in av) == (y in aw) and (y in av) == (x in aw)
    # chained-family voter counts and the four chain properties
    for t in range(1, 17):
        for j in range(1, 7):
            for k in range(j + 1, 13):
                lab = e_t_election(t, j, k)
                e = lab.election
                assert e.n == t * 2 ** j
                d = delta_formula(j, k)
                dummies = [f"d{i}" for i in range(1, k - 1)]
                up = [Swap(lab.candidate(f"c{q}"), lab.candidate(f"c{q + 1}"))
                      for q in range(1, t + 1)]
                eps = Epsilon.zero_plus(k)
                c1 = validate_sequence(e, lab.committee(*dummies, "x", "c1"), up, eps)
                assert c1.certified_good and c1.total_gain == t * d
                c2 = validate_sequence(
                    e, lab.committee(*dummies, "y", f"c{t + 1}"), inverse_sequence(up), eps)
                assert c2.certified_good and c2.total_gain == t * d
                state = SatisfactionState(e, lab.committee(*dummies, "x", f"c{t + 1}"))
                assert delta(e, state, lab.candidate("x"), lab.candidate("y")) == -t * d
                state = SatisfactionState(e, lab.committee(*dummies, "y", "c1"))
                assert delta(e, state, lab.candidate("y"), lab.candidate("x")) == -t * d
    elapsed = _elapsed_ok("criterion 3", started, 60.0)
    print(f"\n[PASS] criterion 3: mirror bijection and chain totals, "
          f"t<=16, j<=6, j<k<=12 ({elapsed:.2f}s)")


def _warmup_csv() -> str:
    rows = []
    for k in (4, 8, 16, 32, 64):
        lab = warmup_election(k)
        e = lab.election
        t = k // 4
        seq = warmup_sequence(k)
        assert len(seq) == (k - 1) * (t + 1), k
        assert e.n <= k * k // 2, k
        cert = validate_sequence(e, warmup_initial_committee(lab), seq,
                                 Epsilon.threshold(e))
        assert cert.certified_good, k
        rows.append({
            "k": k, "n": e.n, "m": e.m, "steps": cert.steps,
            "epsilon": cert.epsilon, "total_gain": cert.total_gain,
            "min_delta": min(cert.step_deltas), "max_delta": max(cert.step_deltas),
        })
    return write_csv(rows, ("k", "n", "m", "steps", "epsilon", "total_gain",
                            "min_delta", "max_delta"))


def test_criterion_04_quadratic_family():
    started = time.perf_counter()
    _artifacts["warmup"] = _warmup_csv()
    elapsed = _elapsed_ok("criterion 4", started, 30.0)
    print(f"\n[PASS] criterion 4: quadratic sequences certify at n/k^2 for "
          f"k in {{4,8,16,32,64}} ({elapsed:.2f}s)")


def _layered_csv() -> str:
    rows = []
    for levels, k in ((2, 32), (3, 64)):
        params = LayeredParams(levels, k)
        assert gain_holds(params).passed, (levels, k)
        from pavls.constructions import layered_election, layered_initial_committee

        lab = layered_election(params)
        cert = validate_sequence(
            lab.election, layered_initial_committee(params),
            iter_x_sequence(params, levels, 1), Epsilon.zero_plus(k))
        assert cert.certified_good, (levels, k)
        assert cert.steps == x_length(params, levels)
        assert min(cert.step_deltas) > 0
        rows.append({
            "levels": levels, "k": k, "steps": cert.steps,
            "total_gain": cert.total_gain,
            "min_delta": min(cert.step_deltas), "max_delta": max(cert.step_deltas),
        })
    return write_csv(rows, ("levels", "k", "steps", "total_gain",
                            "min_delta", "max_delta"))


def test_criterion_05_super_polynomial_sequences():
    started = time.perf_counter()
    assert x_length(LayeredParams(2, 32), 2) == 1056
    assert x_length(LayeredParams(3, 64), 3) == 266_304
    _artifacts["layered"] = _layered_csv()
    elapsed = _elapsed_ok("criterion 5", started, 600.0)
    print(f"\n[PASS] criterion 5: recursive sequences of lengths 1056 and "
          f"266304 certify strictly improving ({elapsed:.1f}s)")


def _hardened_csv() -> str:
    hp = HardenedParams(LayeredParams(2, 32))
    cert = certify_hardened(hp)
    assert cert.matches, f"first mismatch at {cert.first_mismatch}"
    assert cert.trace.executed_swaps == cert.predicted
    assert cert.trace.swaps == len(cert.predicted)
    assert cert.trace.swaps >= hp.layered.t ** 2 // 2
    # every executed swap stays within one column
    t = hp.layered.t
    for swap in cert.trace.executed_swaps:
        assert swap.out_candidate // (t + 1) == swap.in_candidate // (t + 1)
    rows = [
        {"step": i, "out": s.out_candidate, "in": s.in_candidate, "delta": d}
        for i, (s, d) in enumerate(zip(cert.trace.executed_swaps,
                                       cert.trace.step_deltas))
    ]
    return write_csv(rows, ("step", "out", "in", "delta"))


def test_criterion_06_fixed_pivot_rule():
    started = time.perf_counter()
    _artifacts["hardened"] = _hardened_csv()
    elapsed = _elapsed_ok("criterion 6", started, 600.0)
    print(f"\n[PASS] criterion 6: lexicographic run executes the predicted "
          f"560-swap shortcut sequence exactly ({elapsed:.1f}s)")


def test_criterion_07_asymptotic_regime_documented():
    started = time.perf_counter()
    # closed form of the length recurrence, checked for every level
    # count up to 10 at a valid base size
    for levels in range(1, 11):
        params = LayeredParams(levels, max(3 * levels, 21))
        t = params.t
        for i in range(1, levels + 1):
            assert x_length(params, i) == (t ** (i + 1) - t) // (t - 1)
    # the asymptotic level rule does not validate at desk scale
    default_rule = min_k_gain_search(range(2, 65))
    assert default_rule.first_pass is None
    # whereas two levels first validate at k=21
    fixed = min_k_gain_search(range(4, 33), levels=2)
    assert fixed.first_pass == 21
    outcomes = {e.k: e.outcome for e in fixed.entries}
    assert outcomes[20] == "fail"
    elapsed = _elapsed_ok("criterion 7", started, 60.0)
    print(f"\n[PASS] criterion 7: length recurrence closed form (levels<=10) "
          f"and validity frontier (first pass at 21 for two levels; none "
          f"<=64 under the asymptotic rule) ({elapsed:.2f}s)")


def test_criterion_08_oracle_equivalence():
    import random

    started = time.perf_counter()
    rng = random.Random(987654321)
    instances = 0
    while instances < 500:
        m = rng.randint(4, 12)
        k = rng.randint(1, min(4, m))
        classes = tuple(
            BallotClass(frozenset(c for c in range(m) if rng.random() < 0.4),
                        rng.randint(1, 3))
            for _ in range(rng.randint(1, 40))
        )
        e = Election(tuple(f"c{i}" for i in range(m)), classes, k)
        eps = Epsilon.zero_plus(k)
        initial = select_initial_committee(e)
        optimum = brute_force_optimum(e).optimum_score
        for rule_name in ("lex-better", "best"):
            from pavls import BestResponse
            rule = (LexicographicBetterResponse() if rule_name == "lex-better"
                    else BestResponse())
            trace = run(e, initial, eps, rule)
            assert trace.terminated
            flag, witness, gain = is_locally_optimal(e, trace.final_committee, eps)
            assert flag, (instances, rule_name, witness, gain)
            assert pav_score(e, trace.final_committee) <= optimum
        # incremental delta equals from-scratch difference on every pair
        state = SatisfactionState(e, initial)
        base = pav_score(e, initial)
        for a in initial:
            for b in range(m):
                if b not in initial:
                    assert delta(e, state, a, b) == \
                        pav_score(e, (initial - {a}) | {b}) - base
        instances += 1
    elapsed = _elapsed_ok("criterion 8", started, 300.0)
    print(f"\n[PASS] criterion 8: {instances} random instances agree with "
          f"the brute-force oracle ({elapsed:.1f}s)")


def _experiment_result():
    config = ExperimentConfig(
        source=SamplerConfig(ImpartialCulture(0.5), 100, 20, 0),
        k_values=tuple(range(3, 11)),
        repetitions=200,
        base_seed=7,
    )
    return run_experiment(config)


def test_criterion_09_rule_comparison():
    started = time.perf_counter()
    result = _experiment_result()
    _artifacts["runs"] = result.runs_csv()
    _artifacts["aggregate"] = result.aggregate_csv()
    medians = {(row["k"], row["rule"]): row["comparisons_median"]
               for row in result.aggregates}
    for k in range(3, 11):
        lex, best = medians[(k, "lex-better")], medians[(k, "best")]
        assert lex < best, (k, lex, best)
    elapsed = _elapsed_ok("criterion 9", started, 600.0)
    print(f"\n[PASS] criterion 9: median comparisons favor lexicographic "
          f"better response at every k in 3..10 ({elapsed:.1f}s)")


def test_criterion_10_determinism():
    started = time.perf_counter()
    for key in ("warmup", "layered", "hardened", "runs", "aggregate"):
        assert key in _artifacts, f"{key} artifact missing; earlier criterion skipped?"
    assert _warmup_csv() == _artifacts["warmup"]
    assert _layered_csv() == _artifacts["layered"]
    assert _hardened_csv() == _artifacts["hardened"]
    repeat = _experiment_result()
    assert repeat.runs_csv() == _artifacts["runs"]
    assert repeat.aggregate_csv() == _artifacts["aggregate"]
    elapsed = time.perf_counter() - started
    print(f"\n[PASS] criterion 10: regenerated CSV artifacts are bytewise "
          f"identical ({elapsed:.1f}s)")
