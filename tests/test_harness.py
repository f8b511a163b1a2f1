import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavls import (
    BallotClass,
    Election,
    ExperimentConfig,
    Euclidean,
    ImpartialCulture,
    InvalidEpsilonError,
    LabeledElection,
    PavlsError,
    Resampling,
    SamplerConfig,
    aggregate,
    brute_force_optimum,
    parse_preflib_categorical,
    run_experiment,
    sample,
    select_initial_committee,
    warmup_election,
    warmup_initial_committee,
    write_csv,
)
from pavls import harness
from pavls.harness import HarnessError, InvalidQuantileError, nearest_rank, run_seed
from pavls.search import RULES


def test_select_initial_committee(fig1a):
    # approval weights 60,60,60,30,30 at k=3
    assert select_initial_committee(fig1a) == frozenset({0, 1, 2})


def test_select_initial_tie_break():
    e = Election(
        ("a", "b", "c", "d"),
        (BallotClass(frozenset(), 1),),
        2,
    )
    assert select_initial_committee(e) == frozenset({0, 1})


def test_select_initial_weighted_matches_expansion():
    classes = (
        BallotClass(frozenset({1, 3}), 5),
        BallotClass(frozenset({0}), 4),
        BallotClass(frozenset({3}), 2),
    )
    e = Election(("a", "b", "c", "d"), classes, 2)
    expanded = tuple(
        BallotClass(bc.approves, 1) for bc in classes for _ in range(bc.weight)
    )
    e2 = Election(e.candidate_names, expanded, 2)
    assert select_initial_committee(e) == select_initial_committee(e2) == frozenset({1, 3})


def test_select_initial_matches_ballot_totals():
    # Reference: total approval weight summed ballot by ballot, ties to
    # the lowest index; small weights and few candidates make ties common.
    rng = random.Random(5)
    for _ in range(300):
        m = rng.randint(1, 7)
        classes = tuple(
            BallotClass(frozenset(c for c in range(m) if rng.random() < 0.4), rng.randint(1, 3))
            for _ in range(rng.randint(1, 8))
        )
        e = Election(tuple(f"c{i}" for i in range(m)), classes, rng.randint(1, m))
        totals = [0] * m
        for bc in classes:
            for c in bc.approves:
                totals[c] += bc.weight
        ranked = sorted(range(m), key=lambda c: (-totals[c], c))
        assert select_initial_committee(e) == frozenset(ranked[:e.committee_size])


def test_nearest_rank():
    values = [1, 2, 3, 10]
    assert nearest_rank(values, Fraction(1, 2)) == 2
    assert nearest_rank(values, Fraction(3, 4)) == 3
    assert nearest_rank(values, Fraction(1, 4)) == 1
    assert nearest_rank([7], Fraction(1, 2)) == 7
    with pytest.raises(HarnessError):
        nearest_rank([], Fraction(1, 2))


def test_nearest_rank_rejects_quantile_outside_unit_interval():
    for q in (Fraction(2), Fraction(-1, 2)):
        with pytest.raises(InvalidQuantileError):
            nearest_rank([1], q)
    assert issubclass(InvalidQuantileError, HarnessError)
    assert issubclass(InvalidQuantileError, IndexError)


def test_aggregate_single_value_and_spread():
    rows = [
        {"model": "m", "k": 3, "rule": "lex-better", "comparisons": c,
         "swaps": s, "error": ""}
        for c, s in ((1, 0), (2, 1), (3, 1), (10, 2))
    ]
    (agg,) = aggregate(rows)
    assert agg["comparisons_min"] == 1
    assert agg["comparisons_q25"] == 1
    assert agg["comparisons_median"] == 2
    assert agg["comparisons_q75"] == 3
    assert agg["comparisons_max"] == 10
    assert agg["swaps_median"] == 1
    single = aggregate(rows[:1])[0]
    assert all(
        single[f"comparisons_{stat}"] == 1
        for stat in ("min", "q25", "median", "q75", "max")
    )


def test_aggregate_skips_failed_groups():
    rows = [{"model": "m", "k": 3, "rule": "best", "comparisons": "",
             "swaps": "", "error": "boom"}]
    with pytest.warns(UserWarning):
        assert aggregate(rows) == []


def test_config_validation():
    source = SamplerConfig(ImpartialCulture(0.5), 10, 5, 0)
    with pytest.raises(HarnessError):
        ExperimentConfig(source, ())
    # Exact ints only: True would run one repetition, and a string, a float
    # or None would raise TypeError.
    for bad in (0, "3", 1.5, True, None):
        with pytest.raises(HarnessError):
            ExperimentConfig(source, (2,), repetitions=bad)
    # random.Random reads seed -1 as 1.
    for bad in ("x", 1.0, True, None, -1):
        with pytest.raises(HarnessError):
            ExperimentConfig(source, (2,), base_seed=bad)
    with pytest.raises(HarnessError):
        ExperimentConfig(source, (2,), rules=("bogus",))
    with pytest.raises(InvalidEpsilonError):
        ExperimentConfig(source, (2,), epsilon="abc")
    assert ExperimentConfig(source, (2,), epsilon="5/2").epsilon == Fraction(5, 2)


def test_config_rejects_bad_source_and_k_values(fig1b):
    source = SamplerConfig(ImpartialCulture(0.5), 10, 5, 0)
    # A source of another type would fail in run_experiment with an
    # AttributeError; "23" would run k = "2" and "3" and write them to
    # runs.csv, and b"23" k = 50 and 51; a bare int would raise TypeError.
    for bad in ("ic", None, 3, fig1b.ballot_classes):
        with pytest.raises(HarnessError):
            ExperimentConfig(bad, (2,))
    for bad in ("23", b"23", 5, None, (2, "3"), (2.0,), (True,)):
        with pytest.raises(HarnessError):
            ExperimentConfig(source, bad)
    assert ExperimentConfig(source, [3, 2]).k_values == (3, 2)
    assert ExperimentConfig(fig1b, range(2, 4)).k_values == (2, 3)


def test_config_refuses_junk_and_empty_rules():
    # None and 5 raised a bare TypeError, and "best" ran as the rules
    # "b", "e", "s", "t".
    source = SamplerConfig(ImpartialCulture(0.5), 10, 5, 0)
    for bad in (None, 5, "best"):
        with pytest.raises(HarnessError, match="rules must be an iterable of strs"):
            ExperimentConfig(source, (2,), rules=bad)
    with pytest.raises(HarnessError, match="need at least one pivoting rule"):
        ExperimentConfig(source, (2,), rules=())
    assert ExperimentConfig(source, (2,), rules=["best"]).rules == ("best",)


def test_config_refuses_repeated_rule_or_k():
    # A repeated rule or k ran its cells twice, and aggregate.csv counted
    # them as one group of twice the repetitions.
    source = SamplerConfig(ImpartialCulture(0.5), 20, 6, 0)
    with pytest.raises(HarnessError, match="repeated rule"):
        ExperimentConfig(source, (2,), repetitions=2, rules=("best", "best"))
    with pytest.raises(HarnessError, match="repeated k"):
        ExperimentConfig(source, (2, 3, 2), repetitions=2)


def test_config_refuses_repetitions_on_fixed_election(fig1b):
    # A fixed election has no randomness: three repetitions wrote three
    # identical rows per (k, rule), and aggregate.csv counted 3.
    for reps in (2, 3):
        with pytest.raises(HarnessError, match="fixed election"):
            ExperimentConfig(fig1b, (2, 3), repetitions=reps)
    result = run_experiment(ExperimentConfig(fig1b, (2, 3)))
    assert [(row["k"], row["rep"]) for row in result.runs] == [(2, 0)] * 2 + [(3, 0)] * 2
    assert {row["repetitions"] for row in result.aggregates} == {1}


def test_seed_schedule():
    assert run_seed(0, 0, 10, 0) == 0
    assert run_seed(3, 2, 10, 4) == 3 * 1_000_003 + 24


def test_seed_schedule_cell_limit():
    # 1_000_003 cells: base seed b's last seed is b * 1_000_003 + 1_000_002,
    # one below base b + 1's first; one more cell would collide.
    source = SamplerConfig(ImpartialCulture(0.5), 10, 5, 0)
    config = ExperimentConfig(source, (2,), repetitions=1_000_003)
    assert run_seed(4, 0, 1_000_003, 1_000_002) + 1 == run_seed(5, 0, 1_000_003, 0)
    assert config.repetitions == 1_000_003
    with pytest.raises(HarnessError, match="collide"):
        ExperimentConfig(source, (2, 3), repetitions=500_002)
    with pytest.raises(HarnessError, match="collide"):
        ExperimentConfig(source, (2,), repetitions=1_000_004)


def test_experiment_deterministic():
    config = ExperimentConfig(
        source=SamplerConfig(ImpartialCulture(0.5), 30, 8, 0),
        k_values=(2, 3),
        repetitions=5,
        base_seed=42,
    )
    r1, r2 = run_experiment(config), run_experiment(config)
    assert r1.runs_csv() == r2.runs_csv()
    assert r1.aggregate_csv() == r2.aggregate_csv()
    # rows for every (k, rep, rule) cell, no failures
    assert len(r1.runs) == 2 * 5 * 2
    assert all(not row["error"] for row in r1.runs)


def test_experiment_aggregates_recomputable():
    config = ExperimentConfig(
        source=SamplerConfig(ImpartialCulture(0.5), 20, 6, 0),
        k_values=(2,),
        repetitions=7,
        base_seed=5,
    )
    result = run_experiment(config)
    assert aggregate(result.runs) == result.aggregates


def test_experiment_fixed_election_custom_epsilon(fig1b):
    config = ExperimentConfig(
        source=fig1b,
        k_values=(3,),
        repetitions=1,
        epsilon=Fraction(10),
        base_seed=0,
    )
    result = run_experiment(config)
    # 10-threshold search performs no swap from the max-approval committee
    assert all(row["swaps"] == 0 for row in result.runs)


def test_experiment_records_failures():
    # k larger than m: every cell fails but the experiment completes
    config = ExperimentConfig(
        source=SamplerConfig(ImpartialCulture(0.5), 5, 3, 0),
        k_values=(9,),
        repetitions=1,
    )
    with pytest.warns(UserWarning):
        result = run_experiment(config)
    assert all(row["error"] for row in result.runs)
    assert result.aggregates == []


def test_experiment_records_a_failed_rule(monkeypatch):
    # A rule that fails after its cell's set-up succeeded: only its rows
    # carry the error, and aggregate skips its groups with a warning.
    real_run = harness.run

    def run(election, initial, epsilon, rule):
        if rule is RULES["best"]:
            raise PavlsError("best failed")
        return real_run(election, initial, epsilon, rule)

    monkeypatch.setattr(harness, "run", run)
    config = ExperimentConfig(SamplerConfig(ImpartialCulture(0.5), 10, 5, 0), (2, 3), 2)
    with pytest.warns(UserWarning, match="no successful runs"):
        result = run_experiment(config)
    assert len(result.runs) == 8
    for row in result.runs:
        failed = row["rule"] == "best"
        assert row["error"] == ("best failed" if failed else "")
        assert (row["swaps"] == "") == failed
    assert {(row["k"], row["rule"]) for row in result.aggregates} == \
        {(2, "lex-better"), (3, "lex-better")}


def test_experiment_propagates_a_fault(monkeypatch):
    # Only a PavlsError is an outcome; a ValueError from inside a cell is
    # a fault of the program and was written to runs.csv as an error row.
    def select_initial_committee(election):
        raise ValueError("engine fault")

    monkeypatch.setattr(harness, "select_initial_committee", select_initial_committee)
    config = ExperimentConfig(SamplerConfig(ImpartialCulture(0.5), 10, 5, 0), (2,))
    with pytest.raises(ValueError, match="engine fault"):
        run_experiment(config)


# ---------------------------------------------------------------------------
# Sampler, format, harness and oracle entry points under junk arguments

_E4 = Election(("a", "b", "c", "d"),
               (BallotClass(frozenset({0, 1}), 2), BallotClass(frozenset({2}), 1)), 2)
_W4 = warmup_election(4)
_ROW = {"model": "m", "k": 2, "rule": "best", "rep": 0, "seed": 0,
        "swaps": 1, "comparisons": 4, "error": ""}
# Each call raised a bare TypeError, AttributeError or KeyError, or
# returned a wrong value: the oracle read a cap of True as 1, and
# nearest_rank rounded a float rank or read unsorted values.
_BAD_CALLS = {
    "preflib bytes text": lambda: parse_preflib_categorical(b"1: {1},{2}", [1]),
    "preflib None text": lambda: parse_preflib_categorical(None, [1]),
    "preflib int categories": lambda: parse_preflib_categorical("1: {1},{2}", 5),
    "preflib None categories": lambda: parse_preflib_categorical("1: {1},{2}", None),
    "oracle str cap": lambda: brute_force_optimum(_E4, "x"),
    "oracle bool cap": lambda: brute_force_optimum(_E4.with_committee_size(4), True),
    "sample None": lambda: sample(None),
    "run_experiment None": lambda: run_experiment(None),
    "aggregate missing keys": lambda: aggregate([{"x": 1}]),
    "aggregate None": lambda: aggregate(None),
    "write_csv None rows": lambda: write_csv(None, ["a"]),
    "nearest_rank str quantile": lambda: nearest_rank([1, 2, 3], "x"),
    # 0.28 * 25 rounds up to rank 8 (value 7); the exact rank is 7 (value 6).
    "nearest_rank float quantile": lambda: nearest_rank(list(range(25)), 0.28),
    "nearest_rank unsorted": lambda: nearest_rank([3, 1, 2], Fraction(1, 2)),
}


@pytest.mark.parametrize("name", sorted(_BAD_CALLS))
def test_bad_input_raises_pavls_error(name):
    with pytest.raises(PavlsError):
        _BAD_CALLS[name]()


_JUNK = (-1, 0, 1, 2, 2.0, 0.5, True, None, "2", "", b"1: {1}", Fraction(1, 2), (2,), [1],
         {"a": 1})
_junk = st.sampled_from(_JUNK)
_preflib_line = st.sampled_from((
    "# NUMBER ALTERNATIVES: 3", "# NUMBER ALTERNATIVES: x", "# CATEGORY NAME 1: yes",
    "# CATEGORY NAME 2: no", "# CATEGORY NAME x: no", "# ALTERNATIVE NAME 2: bee",
    "# TITLE: t", "# FROB: 1", "#", "", "1: {1,2},{3}", "2: 1,{}", "1: {4}", "1: {0}",
    "0: {1}", "x: {1}", "1: {a}", "1: {1", "1: 1,2,3", "just text",
))
_texts = st.lists(_preflib_line, max_size=5).map("\n".join) | st.text(max_size=12) | _junk
_row = st.fixed_dictionaries({key: st.just(value) | _junk for key, value in _ROW.items()})
_tiny_config = st.builds(
    lambda seed, rules: ExperimentConfig(SamplerConfig(ImpartialCulture(0.5), 6, 4, seed),
                                         (2,), rules=rules),
    st.integers(0, 3), st.sampled_from((("best",), ("lex-better", "best"))))
# name -> (call, one strategy per argument).  Every election built is tiny.
_INPUT_ENTRY_POINTS = {
    "sample": (sample, (st.builds(SamplerConfig, st.just(ImpartialCulture(0.5)), st.just(5),
                                  st.just(4), st.integers(0, 9)) | _junk,)),
    "parse_preflib_categorical": (
        parse_preflib_categorical,
        (_texts, st.lists(st.integers(-1, 3) | _junk, max_size=3) | _junk)),
    "write_csv": (write_csv, (
        st.lists(st.dictionaries(st.sampled_from(("a", "b", 1)), _junk, max_size=3) | _junk,
                 max_size=3) | _junk,
        st.sampled_from((("a", "b"), ["a"], ())) | st.lists(_junk, max_size=2) | _junk)),
    "run_experiment": (run_experiment, (_tiny_config | _junk,)),
    # The source's own checks have their own test; every later argument
    # is junk or valid.
    "ExperimentConfig": (
        lambda *a: ExperimentConfig(SamplerConfig(ImpartialCulture(0.5), 6, 4, 0), *a),
        (st.just((2,)) | _junk, st.just(1) | _junk,
         st.sampled_from((("best",), ("lex-better", "best"))) | _junk,
         st.just("zero-plus") | _junk, st.just(0) | _junk)),
    "aggregate": (aggregate, (st.lists(_row | _junk, max_size=4) | _junk,)),
    "nearest_rank": (nearest_rank, (
        st.lists(st.integers(0, 9), max_size=4).map(sorted) | st.lists(_junk, max_size=3) | _junk,
        st.fractions(-1, 2, max_denominator=4) | _junk)),
    "brute_force_optimum": (brute_force_optimum, (st.just(_E4) | _junk,
                                                   st.integers(-1, 8) | _junk)),
    # A LabeledElection built from junk fields, then read by a
    # construction that takes one.
    "LabeledElection": (
        lambda *a: warmup_initial_committee(LabeledElection(*a)),
        (st.sampled_from((_E4, _W4.election)) | _junk,
         st.just(_W4.candidate_labels) | _junk, st.just(_W4.voter_groups) | _junk)),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_input_entry_points_raise_only_pavls_errors(data):
    # Every call either returns or raises a PavlsError; any other
    # exception fails the test.
    call, strategies = _INPUT_ENTRY_POINTS[data.draw(st.sampled_from(sorted(_INPUT_ENTRY_POINTS)))]
    args = data.draw(st.tuples(*strategies))
    try:
        call(*args)
    except PavlsError:
        pass


def test_experiment_csvs_pinned():
    # Both rules' swaps and comparison counts, over four models and three
    # thresholds: a digest of runs.csv then aggregate.csv per config, in
    # order, recorded at commit ae6c70b.
    models = (ImpartialCulture(0.5), Resampling(0.5, 0.5), Euclidean(2, 0.25),
              Euclidean(1, 0.05))
    digest = hashlib.sha256()
    for model in models:
        for eps in ("zero-plus", "threshold", "1/2"):
            result = run_experiment(ExperimentConfig(
                SamplerConfig(model, 30, 10, 0), (2, 3, 4, 5), 4, epsilon=eps, base_seed=3))
            digest.update(result.runs_csv().encode())
            digest.update(result.aggregate_csv().encode())
    assert digest.hexdigest() == \
        "abe5c15f0ef56633cd925725b888d3d76471acbb00198cee5de61ebc96674eb6"
