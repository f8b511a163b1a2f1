import ast
from fractions import Fraction
from pathlib import Path

import pytest

from pavls import (
    BallotClass,
    ConstructionError,
    Election,
    EnumerationCapError,
    Epsilon,
    brute_force_optimum,
    is_locally_optimal,
    min_k_gain_search,
    pav_score,
)


def test_brute_force_fig1a(fig1a):
    report = brute_force_optimum(fig1a)
    assert report.optimum_score == 120
    assert report.enumerated == 10
    # every optimum takes two of {c1,c2,c3} and one of {c4,c5}
    assert len(report.optimum_committees) == 6
    for committee in report.optimum_committees:
        assert len(committee & {0, 1, 2}) == 2
        assert len(committee & {3, 4}) == 1


def test_brute_force_full_committee():
    e = Election(("a", "b"), (BallotClass(frozenset({0}), 1),), 2)
    report = brute_force_optimum(e)
    assert report.optimum_committees == [frozenset({0, 1})]


def test_brute_force_cap(fig1a):
    big = Election(
        tuple(f"c{i}" for i in range(40)),
        (BallotClass(frozenset({0}), 1),),
        20,
    )
    with pytest.raises(EnumerationCapError) as exc:
        brute_force_optimum(big)
    assert exc.value.required > exc.value.cap
    # a tight cap refuses, raising it explicitly works
    with pytest.raises(EnumerationCapError):
        brute_force_optimum(fig1a, enumeration_cap=9)
    assert brute_force_optimum(fig1a, enumeration_cap=10).optimum_score == 120


def test_local_optimality_fig1b(fig1b):
    flag, witness, gain = is_locally_optimal(fig1b, {0, 1, 2}, Epsilon.custom(Fraction(10)))
    assert flag and witness is None
    flag, witness, gain = is_locally_optimal(fig1b, {0, 1, 2}, Epsilon.zero_plus(3))
    assert not flag
    assert gain == Fraction(28, 3)
    assert witness.in_candidate == 3 and witness.out_candidate in {0, 1, 2}


def test_optimum_is_locally_optimal(fig1a, fig1b):
    for e in (fig1a, fig1b):
        for committee in brute_force_optimum(e).optimum_committees:
            flag, _, _ = is_locally_optimal(e, committee, Epsilon.zero_plus(3))
            assert flag


def test_gain_search_fixed_levels():
    report = min_k_gain_search(range(4, 33), levels=2)
    assert report.first_pass == 21
    by_k = {entry.k: entry.outcome for entry in report.entries}
    assert by_k[6] == "fail"  # valid params, inequality fails
    assert by_k[5] == "invalid"  # level arity 4 not below k2+1 = 4
    assert by_k[20] == "fail"
    assert all(by_k[k] == "pass" for k in range(21, 33))


def test_gain_search_default_rule_never_passes_small():
    report = min_k_gain_search(range(2, 65))
    assert report.first_pass is None
    assert all(entry.outcome in ("fail", "invalid") for entry in report.entries)


def test_gain_search_nonpositive_k_is_invalid():
    report = min_k_gain_search(range(-1, 3))
    assert [(e.k, e.levels, e.outcome) for e in report.entries] == [
        (-1, None, "invalid"), (0, None, "invalid"), (1, None, "invalid"), (2, None, "invalid")]
    # A k or levels that is not an exact int is the caller's error, and
    # so is a k_range that is not iterable: each used to raise a bare
    # TypeError or pass as an int.
    for k_range in (["x"], None, 5, [2.5], [True], [32, 32.0], "32"):
        with pytest.raises(ConstructionError):
            min_k_gain_search(k_range)
    for levels in (2.0, True, "2", Fraction(2)):
        with pytest.raises(ConstructionError):
            min_k_gain_search([32], levels=levels)


def test_gain_search_reports_margins():
    report = min_k_gain_search([32], levels=2)
    (entry,) = report.entries
    lhs, rhs = entry.margins[2]
    assert lhs > rhs


def test_oracle_imports_only_core():
    # The oracle is the engine's independent reference: it must not pull
    # in search, constructions or the incremental engine around them.
    import pavls.oracle

    tree = ast.parse(Path(pavls.oracle.__file__).read_text())
    relative = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }
    absolute = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    } | {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    }
    assert relative == {"core"}
    assert not any(name == "pavls" or name.startswith("pavls.") for name in absolute)
