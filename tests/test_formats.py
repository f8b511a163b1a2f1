from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavls import (
    BallotClass,
    Election,
    FormatError,
    parse_native,
    parse_preflib_categorical,
    pav_score,
    serialize_native,
    write_csv,
)


def test_native_round_trip(fig1b):
    text = serialize_native(fig1b)
    assert parse_native(text) == fig1b
    assert serialize_native(parse_native(text)) == text
    assert pav_score(parse_native(text), {0, 1, 2}) == Fraction(308, 3)


@st.composite
def _elections(draw):
    # Names are whitespace-free tokens: a ``cand`` line keeps the name
    # after its index, stripped.
    token = st.text(st.characters(whitelist_categories=("L", "N", "P", "S")), min_size=1, max_size=6)
    names = draw(st.lists(token, min_size=1, max_size=6, unique=True))
    m = len(names)
    ballot = st.frozensets(st.integers(0, m - 1))
    classes = draw(st.lists(
        st.builds(BallotClass, ballot, st.integers(1, 2**70)), min_size=1, max_size=6))
    k = draw(st.none() | st.integers(1, m))
    return Election(tuple(names), tuple(classes), k)


@settings(max_examples=150, deadline=None)
@given(_elections())
def test_native_round_trip_random(e):
    assert parse_native(serialize_native(e)) == e


@pytest.mark.parametrize("name", ["a\nballot 1: 0", "a ", "", 1])
def test_native_rejects_names_that_do_not_round_trip(name):
    e = Election((name, "b"), (BallotClass(frozenset({0}), 1),), 1)
    with pytest.raises(FormatError, match="round-trip"):
        serialize_native(e)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
def test_native_any_names_round_trip_or_raise(names):
    e = Election(tuple(names), (BallotClass(frozenset({0}), 1),), None)
    try:
        text = serialize_native(e)
    except FormatError:
        assert any(name.strip().splitlines() != [name] for name in names)
    else:
        assert parse_native(text) == e


def test_native_unset_committee_size():
    e = Election(("a", "b"), (BallotClass(frozenset({0}), 1),), None)
    text = serialize_native(e)
    assert text.splitlines()[0] == "pavls 1 2 0"
    assert parse_native(text).committee_size is None


def test_native_basic_shape():
    text = "pavls 1 5 3\n" + "".join(f"cand {i} c{i}\n" for i in range(5))
    text += "ballot 2: 0 1 4\nballot 1:\n"
    e = parse_native(text)
    assert e.m == 5 and e.committee_size == 3
    assert e.ballot_classes == (
        BallotClass(frozenset({0, 1, 4}), 2),
        BallotClass(frozenset(), 1),
    )


@pytest.mark.parametrize(
    "mutation,line",
    [
        ("", None),  # empty file
        ("pav 1 2 1\ncand 0 a\ncand 1 b\nballot 1: 0\n", 1),
        ("pavls 2 2 1\ncand 0 a\ncand 1 b\nballot 1: 0\n", 1),
        ("pavls 1 2 3\ncand 0 a\ncand 1 b\nballot 1: 0\n", 1),
        ("pavls 1 2 1\ncand 0 a\ncand 0 b\nballot 1: 0\n", 3),
        ("pavls 1 2 1\ncand 0 a\ncand 5 b\nballot 1: 0\n", 3),
        ("pavls 1 2 1\ncand 0 a\ncand 1 b\nballot 0: 0\n", 4),
        ("pavls 1 2 1\ncand 0 a\ncand 1 b\nballot 1: 7\n", 4),
        ("pavls 1 2 1\ncand 0 a\ncand 1 b\nballot 1: 1 0\n", 4),
        ("pavls 1 2 1\ncand 0 a\ncand 1 b\nballot 1 0\n", 4),
        ("pavls 1 2 1\ncand 0 a\ncand 1 b\nwat\n", 4),
        ("pavls 1 2 1\ncand 0 a\nballot 1: 0\n", None),  # candidate 1 missing
        ("pavls 1 2 1\ncand 0 a\ncand 1 b\n", None),  # no ballots
    ],
)
def test_native_rejects_malformed(mutation, line):
    with pytest.raises(FormatError) as exc:
        parse_native(mutation)
    assert exc.value.line == line


PREFLIB_SAMPLE = """\
# FILE NAME: toy.cat
# TITLE: toy
# NUMBER ALTERNATIVES: 5
# NUMBER VOTERS: 6
# NUMBER CATEGORIES: 3
# CATEGORY NAME 1: yes
# CATEGORY NAME 2: maybe
# CATEGORY NAME 3: no

3: {1,2},{},{3,4,5}
2: {3},{4},{1,2,5}
1: {},{},{1,2,3,4,5}
"""


def test_preflib_basic():
    e = parse_preflib_categorical(PREFLIB_SAMPLE, {1})
    assert e.m == 5 and e.n == 6 and e.committee_size is None
    assert e.ballot_classes[0] == BallotClass(frozenset({0, 1}), 3)
    assert e.ballot_classes[1] == BallotClass(frozenset({2}), 2)
    assert e.ballot_classes[2] == BallotClass(frozenset(), 1)


def test_preflib_category_union():
    e = parse_preflib_categorical(PREFLIB_SAMPLE, {1, 2})
    assert e.ballot_classes[1].approves == frozenset({2, 3})
    # an empty chosen category contributes nothing
    assert e.ballot_classes[0].approves == frozenset({0, 1})


def test_preflib_bare_integers_and_blank_lines():
    text = "# NUMBER ALTERNATIVES: 3\n\n2: 1,{2},{3}\n"
    e = parse_preflib_categorical(text, {1})
    assert e.ballot_classes[0] == BallotClass(frozenset({0}), 2)


def test_preflib_unknown_metadata_warns():
    text = "# FROBNICATION LEVEL: 9\n1: {1},{2}\n"
    with pytest.warns(UserWarning):
        parse_preflib_categorical(text, {1})


def test_preflib_errors():
    with pytest.raises(FormatError):
        parse_preflib_categorical(PREFLIB_SAMPLE, set())
    with pytest.raises(FormatError):
        parse_preflib_categorical(PREFLIB_SAMPLE, {9})
    with pytest.raises(FormatError):
        parse_preflib_categorical("# NUMBER ALTERNATIVES: 2\n1: {1,5}\n", {1})
    with pytest.raises(FormatError):
        parse_preflib_categorical("1: {1},{a}\n", {1})
    with pytest.raises(FormatError):
        parse_preflib_categorical("0: {1}\n", {1})
    with pytest.raises(FormatError):
        parse_preflib_categorical("just text\n", {1})


def test_write_csv_renders_fractions():
    rows = [
        {"k": 3, "delta": Fraction(28, 3), "score_float": Fraction(308, 3)},
        {"k": 4, "delta": Fraction(5), "score_float": Fraction(1, 2)},
    ]
    text = write_csv(rows, ("k", "delta", "score_float"))
    lines = text.splitlines()
    assert lines[0] == "k,delta,score_float"
    assert lines[1] == "3,28/3,308/3"
    assert lines[2] == "4,5,1/2"
    assert Fraction(lines[1].split(",")[1]) == Fraction(28, 3)


def test_write_csv_empty_and_schema_mismatch():
    assert write_csv([], ("a", "b")) == "a,b\n"
    with pytest.raises(FormatError):
        write_csv([{"a": 1}], ("a", "b"))
