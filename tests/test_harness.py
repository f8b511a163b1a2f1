from fractions import Fraction

import pytest

from pavls import (
    BallotClass,
    Election,
    ExperimentConfig,
    ImpartialCulture,
    InvalidEpsilonError,
    SamplerConfig,
    aggregate,
    run_experiment,
    select_initial_committee,
)
from pavls.harness import HarnessError, nearest_rank, run_seed, write_outputs


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


def test_nearest_rank():
    values = [1, 2, 3, 10]
    assert nearest_rank(values, Fraction(1, 2)) == 2
    assert nearest_rank(values, Fraction(3, 4)) == 3
    assert nearest_rank(values, Fraction(1, 4)) == 1
    assert nearest_rank([7], Fraction(1, 2)) == 7
    with pytest.raises(HarnessError):
        nearest_rank([], Fraction(1, 2))


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
    with pytest.raises(HarnessError):
        ExperimentConfig(source, (2,), repetitions=0)
    with pytest.raises(HarnessError):
        ExperimentConfig(source, (2,), rules=("bogus",))
    with pytest.raises(InvalidEpsilonError):
        ExperimentConfig(source, (2,), epsilon="abc")
    assert ExperimentConfig(source, (2,), epsilon="5/2").epsilon == Fraction(5, 2)


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


def test_experiment_deterministic(tmp_path):
    config = ExperimentConfig(
        source=SamplerConfig(ImpartialCulture(0.5), 30, 8, 0),
        k_values=(2, 3),
        repetitions=5,
        base_seed=42,
    )
    r1, r2 = run_experiment(config), run_experiment(config)
    assert r1.runs_csv() == r2.runs_csv()
    assert r1.aggregate_csv() == r2.aggregate_csv()
    runs_path, agg_path = write_outputs(r1, tmp_path / "out")
    assert runs_path.read_text() == r1.runs_csv()
    assert agg_path.read_text() == r1.aggregate_csv()
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
        repetitions=2,
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
