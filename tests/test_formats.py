import time
import tracemalloc
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavls import (
    BallotClass,
    Election,
    FormatError,
    LayeredParams,
    PavlsError,
    layered_election,
    parse_native,
    parse_preflib_categorical,
    pav_score,
    serialize_native,
    write_csv,
)
from pavls.formats import _weighted


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


def _first_holders(keys):
    """Per position, the first position holding the same key."""
    first = {}
    return [first.setdefault(key, i) for i, key in enumerate(keys)]


def _sharing(e):
    """Per class, the first class holding the same approvals object."""
    return _first_holders(id(bc.approves) for bc in e.ballot_classes)


def _equal_ballots(e):
    """Per class, the first class holding an equal ballot."""
    return _first_holders(bc.approves for bc in e.ballot_classes)


@settings(max_examples=150, deadline=None)
@given(_elections())
def test_native_round_trip_random(e):
    parsed = parse_native(serialize_native(e))
    assert parsed == e
    # The drawn classes hold separate frozensets; the parse shares one
    # per distinct ballot.
    assert _sharing(parsed) == _equal_ballots(e)


def test_native_round_trip_keeps_constructed_sharing():
    e = layered_election(LayeredParams(2, 22)).election
    parsed = parse_native(serialize_native(e))
    assert parsed == e
    assert _sharing(parsed) == _sharing(e) == _equal_ballots(e)
    assert len(set(_sharing(e))) < len(e.ballot_classes)


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


def test_native_skips_blank_lines_between_ballots():
    text = "pavls 1 2 1\ncand 0 a\ncand 1 b\nballot 2: 0\n\n  \nballot 1: 1\n"
    assert parse_native(text).ballot_classes == (
        BallotClass(frozenset({0}), 2),
        BallotClass(frozenset({1}), 1),
    )


@pytest.mark.parametrize(
    "mutation,line",
    [
        ("", None),  # empty file
        ("pav 1 2 1\ncand 0 a\ncand 1 b\nballot 1: 0\n", 1),
        ("pavls 2 2 1\ncand 0 a\ncand 1 b\nballot 1: 0\n", 1),
        ("pavls 1 2 3\ncand 0 a\ncand 1 b\nballot 1: 0\n", 1),
        ("pavls 1 x 1\ncand 0 a\ncand 1 b\nballot 1: 0\n", 1),  # non-integer header field
        ("pavls 1 2 1\ncand 0 a\ncand 0 b\nballot 1: 0\n", 3),
        ("pavls 1 2 1\ncand 0 a\ncand 5 b\nballot 1: 0\n", 3),
        ("pavls 1 2 1\ncand 0 a\ncand x b\nballot 1: 0\n", 3),  # bad candidate index
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


_TWO = "pavls 1 2 1\ncand 0 a\ncand 1 b\n"


@pytest.mark.parametrize(
    "entries,message",
    [
        # A range error goes before an order error, and names the first
        # entry out of range.
        ("7 0", "line 4: ballot entry 7 out of range [0, 2)"),
        ("1 0 7", "line 4: ballot entry 7 out of range [0, 2)"),
        ("0 9 -1", "line 4: ballot entry 9 out of range [0, 2)"),
        ("-1", "line 4: ballot entry -1 out of range [0, 2)"),
        ("1 1", "line 4: ballot entries must be strictly increasing"),
        ("0 1 1", "line 4: ballot entries must be strictly increasing"),
        ("1 0", "line 4: ballot entries must be strictly increasing"),
        ("0 x", "line 4: non-integer ballot entry"),
    ],
)
def test_native_ballot_entry_errors(entries, message):
    with pytest.raises(FormatError) as exc:
        parse_native(f"{_TWO}ballot 1: {entries}\n")
    assert str(exc.value) == message and exc.value.line == 4


def test_native_ballot_entries_int_syntax():
    # A ballot line holds whatever int() reads: no entry, or a signed one.
    e = parse_native(f"{_TWO}ballot 1:\nballot 2: +1\nballot 3: 0 +1\n")
    assert e.ballot_classes == (
        BallotClass(frozenset(), 1),
        BallotClass(frozenset({1}), 2),
        BallotClass(frozenset({0, 1}), 3),
    )
    assert serialize_native(e).endswith("ballot 1:\nballot 2: 1\nballot 3: 0 1\n")


def test_native_huge_declared_size_allocates_nothing():
    # A names table of m slots raised MemoryError here.
    with pytest.raises(FormatError, match="candidate 1 never declared"):
        parse_native("pavls 1 1000000000000 0\ncand 0 a\nballot 1: 0\n")


@pytest.mark.parametrize("text", [None, 123, b"pavls 1 1 0\n", ["pavls 1 1 0"]])
def test_parse_native_needs_text(text):
    with pytest.raises(FormatError, match="native text must be a str"):
        parse_native(text)


@pytest.mark.parametrize("election", ["x", None, ("a",), BallotClass(frozenset(), 1)])
def test_serialize_native_needs_an_election(election):
    with pytest.raises(FormatError, match="can only serialize an Election"):
        serialize_native(election)


@st.composite
def _mutated_native(draw):
    # A valid text with up to four spans of at most four characters each
    # replaced by at most four characters of a format-heavy alphabet, so
    # the edits insert, delete and overwrite.
    text = serialize_native(draw(_elections()))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        stop = draw(st.integers(start, min(len(text), start + 4)))
        text = text[:start] + draw(st.text("0123456789 +-_:\nabcdlpvs", max_size=4)) + text[stop:]
    return text


@settings(max_examples=400, deadline=None)
@given(_mutated_native())
def test_parse_native_mutations_raise_or_round_trip(text):
    try:
        e = parse_native(text)
    except PavlsError:
        return
    assert parse_native(serialize_native(e)) == e


def _reference_parse_native(text):
    """``parse_native`` as it read a ballot line before its table of
    canonical spellings: ``int()`` on every entry, then the range test."""
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input")
    header = lines[0].split()
    if len(header) != 4 or header[0] != "pavls":
        raise FormatError(f"bad header {lines[0]!r}", line=1)
    try:
        version, m, k = int(header[1]), int(header[2]), int(header[3])
    except ValueError:
        raise FormatError(f"non-integer header field in {lines[0]!r}", line=1)
    if version != 1:
        raise FormatError(f"unsupported format version {version}", line=1)
    if m < 1 or k < 0 or k > m:
        raise FormatError(f"bad sizes m={m}, k={k}", line=1)

    def read_ballot(body, lineno):
        try:
            entries = list(map(int, body.split()))
        except ValueError:
            raise FormatError("non-integer ballot entry", line=lineno)
        if entries and (min(entries) < 0 or max(entries) >= m):
            bad = next(c for c in entries if not 0 <= c < m)
            raise FormatError(f"ballot entry {bad} out of range [0, {m})", line=lineno)
        ballot = frozenset(entries)
        if len(ballot) < len(entries) or entries != sorted(entries):
            raise FormatError("ballot entries must be strictly increasing", line=lineno)
        return ballot

    names, classes = {}, []
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("cand "):
            parts = line.split(maxsplit=2)
            if len(parts) != 3:
                raise FormatError("cand line needs an index and a name", line=lineno)
            try:
                idx = int(parts[1])
            except ValueError:
                raise FormatError(f"bad candidate index {parts[1]!r}", line=lineno)
            if not 0 <= idx < m:
                raise FormatError(f"candidate index {idx} out of range [0, {m})", line=lineno)
            if idx in names:
                raise FormatError(f"duplicate candidate index {idx}", line=lineno)
            names[idx] = parts[2]
        elif line.startswith("ballot "):
            weight, ballot = _weighted(line[len("ballot "):], lineno, read_ballot)
            classes.append(BallotClass(ballot, weight))
        else:
            raise FormatError(f"unrecognized line {line!r}", line=lineno)
    if len(names) < m:
        missing = next(i for i in range(m) if i not in names)
        raise FormatError(f"candidate {missing} never declared")
    if not classes:
        raise FormatError("no ballot lines")
    return Election(tuple(names[i] for i in range(m)), tuple(classes), None if k == 0 else k)


def _parsed(parse, text):
    """The election, or the refusal's message and line."""
    try:
        return parse(text)
    except FormatError as exc:
        return ("refused", str(exc), exc.line)


@st.composite
def _respelled_native(draw):
    # A valid text whose ballot bodies take up to four edits: text of the
    # mutation alphabet plus a non-ASCII digit and a tab, or an entry
    # near m or the line count.  The header may declare more candidates
    # than the text has lines, which cuts the reader's spelling table
    # short of m.
    e = draw(_elections())
    lines = serialize_native(e).splitlines()
    entries = st.integers(-1, len(lines) + 12).map(" {}".format)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(1 + e.m, len(lines) - 1))
        start = draw(st.integers(lines[i].find(":") + 1, len(lines[i])))
        stop = draw(st.integers(start, min(len(lines[i]), start + 4)))
        edit = draw(st.text("0123456789 +-_:\nabcdlpvs\u0663\t", max_size=4) | entries)
        lines[i] = lines[i][:start] + edit + lines[i][stop:]
    # Up to three repeats of a ballot line, edited or not, anywhere
    # after the header and maybe with another weight: a repeated ballot
    # is interned.
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(1 + e.m, len(lines) - 1))
        line = lines[i]
        if draw(st.booleans()):
            line = f"ballot {draw(st.integers(1, 3))}:{line.partition(':')[2]}"
        lines.insert(draw(st.integers(1, len(lines))), line)
    body = "\n".join(lines[1:]) + "\n"
    if draw(st.booleans()):
        k = lines[0].split()[3]
        lines[0] = f"pavls 1 {len(body.splitlines()) + 1 + draw(st.integers(0, 12))} {k}"
    return lines[0] + "\n" + body


@settings(max_examples=600, deadline=None)
@given(_respelled_native())
def test_parse_native_reads_as_int_reader(text):
    assert _parsed(parse_native, text) == _parsed(_reference_parse_native, text)


def _one_ballot(body, m=4, declared=None):
    """A text declaring m candidates, with cand lines for the first
    ``declared`` of them (all by default), then ``ballot 1: <body>``."""
    declared = m if declared is None else declared
    cands = "".join(f"cand {i} c{i}\n" for i in range(declared))
    return f"pavls 1 {m} 0\n{cands}ballot 1: {body}\n"


# Each ballot text with its parse at the int()-based reader: the one
# class's approvals, or a refusal's message and line.
_BALLOT_SPELLINGS = [
    (_one_ballot(""), frozenset()),
    (_one_ballot("0 1 2 3"), frozenset({0, 1, 2, 3})),
    (_one_ballot("+1"), frozenset({1})),
    (_one_ballot("01"), frozenset({1})),
    (_one_ballot("-0"), frozenset({0})),
    (_one_ballot("\u0663"), frozenset({3})),
    (_one_ballot("0\t2"), frozenset({0, 2})),
    (_one_ballot("1_0", m=12), frozenset({10})),
    (_one_ballot("0 x"), ("refused", "line 6: non-integer ballot entry", 6)),
    (_one_ballot("1 0"), ("refused", "line 6: ballot entries must be strictly increasing", 6)),
    (_one_ballot("1 1"), ("refused", "line 6: ballot entries must be strictly increasing", 6)),
    (_one_ballot("3 \u0663"), ("refused", "line 6: ballot entries must be strictly increasing", 6)),
    (_one_ballot("0 4"), ("refused", "line 6: ballot entry 4 out of range [0, 4)", 6)),
    (_one_ballot("7 0"), ("refused", "line 6: ballot entry 7 out of range [0, 4)", 6)),
    (_one_ballot("-1"), ("refused", "line 6: ballot entry -1 out of range [0, 4)", 6)),
    (_one_ballot("0 1_000"), ("refused", "line 6: ballot entry 1000 out of range [0, 4)", 6)),
    # Three lines spell 0, 1 and 2 in the table; 50 and 100 lie past it.
    (_one_ballot("0 50", m=100, declared=1), ("refused", "candidate 1 never declared", None)),
    (_one_ballot("0 100", m=100, declared=1),
     ("refused", "line 3: ballot entry 100 out of range [0, 100)", 3)),
]


@pytest.mark.parametrize("text,expected", _BALLOT_SPELLINGS)
def test_native_ballot_spellings_pinned(text, expected):
    result = _parsed(parse_native, text)
    if isinstance(result, Election):
        result = result.ballot_classes[0].approves
    assert result == expected


@pytest.mark.parametrize("body, message", [
    ("1 0", "ballot entries must be strictly increasing"),
    ("0 x", "non-integer ballot entry"),
    ("0 4", "ballot entry 4 out of range [0, 4)"),
])
def test_native_repeated_malformed_ballot_fails_at_first(body, message):
    # Lines 6 and 8 spell one malformed body; only a clean ballot is
    # interned, so the first occurrence fails as it would alone.
    text = _one_ballot(body) + f"ballot 2: 0 1\nballot 3: {body}\n"
    assert _parsed(parse_native, text) == ("refused", f"line 6: {message}", 6)
    clean = _one_ballot("0 1") + f"ballot 2: 0 1\nballot 3: {body}\nballot 1: {body}\n"
    assert _parsed(parse_native, clean) == ("refused", f"line 8: {message}", 8)


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


def test_preflib_approved_index_is_a_positive_int():
    # Without category names only the indices bound the groups read:
    # index 0 read the last group and -1 the second-to-last, a string
    # raised TypeError and True read category 1.
    text = "1: {1,2},{3}\n2: {3},{1}\n"
    for bad in ({0}, {-1}, {1, 0}, {"1"}, {True}, {1.0}):
        with pytest.raises(FormatError):
            parse_preflib_categorical(text, bad)
    assert parse_preflib_categorical(text, {2}).ballot_classes[0].approves == frozenset({2})
    # An index past a line's groups still contributes nothing.
    assert parse_preflib_categorical(text, {3}).ballot_classes[0].approves == frozenset()


def _e(names, *classes):
    """The expected election: names a1..a<names> for an int, and one
    (0-based approvals, weight) pair per data line."""
    if isinstance(names, int):
        names = tuple(f"a{i}" for i in range(1, names + 1))
    return Election(names, tuple(BallotClass(frozenset(a), w) for a, w in classes), None)


def _refused(line):
    return ("refused", line)


# Each spelling with the approved categories and its result: the
# election, or a FormatError and its line.  The results were recorded
# from the earlier position-by-position group reader, so a change in any
# of them changes what the format accepts.  Every alternative 1..m is
# mentioned, so the mention rule refuses none of them.
_PREFLIB_SPELLINGS = [
    # group separators
    ("1: {1},{2}", {1}, _e(2, ({0}, 1))),
    ("1: {1} {2}", {2}, _e(2, ({1}, 1))),
    ("1: {1}\t{2}", {2}, _e(2, ({1}, 1))),
    ("1: {1}, {2}", {1, 2}, _e(2, ({0, 1}, 1))),
    ("1: {1} ,\t{2}", {2}, _e(2, ({1}, 1))),
    ("1: {1}{2}", {2}, _e(2, ({1}, 1))),
    ("1: {1},,{2}", {2}, _e(2, ({1}, 1))),
    ("1: {1},{2},", {2}, _e(2, ({1}, 1))),
    ("1: {1};{2}", {1}, _refused(1)),
    ("1: {1}\xa0{2}", {1}, _refused(1)),
    ("1: {1}|{2}", {1}, _refused(1)),
    # blanks
    ("1:    {1} , {2}   ", {1}, _e(2, ({0}, 1))),
    ("  3 :{1,2},{3}", {1}, _e(3, ({0, 1}, 3))),
    ("1: { 1 , 2 }", {1}, _e(2, ({0, 1}, 1))),
    ("1:\n1: {1}", {1}, _e(1, (set(), 1), ({0}, 1))),
    ("\n\t\n1: {1}\n   \n2: {1}\n", {1}, _e(1, ({0}, 1), ({0}, 2))),
    ("1:{1}", {1}, _e(1, ({0}, 1))),
    # braces
    ("1: {},{1}", {1, 2}, _e(1, ({0}, 1))),
    ("1: { },{1}", {1}, _e(1, (set(), 1))),
    ("1: {\t},{1}", {1}, _e(1, (set(), 1))),
    ("1: {1,},{2}", {1}, _refused(1)),
    ("1: {,1}", {1}, _refused(1)),
    ("1: {1,,2}", {1}, _refused(1)),
    ("1: {1 2}", {1}, _refused(1)),
    ("1: {+1,2_0}," + ",".join(f"{{{i}}}" for i in range(2, 20)), {1}, _e(20, ({0, 19}, 1))),
    # bare tokens
    ("2: 1,{2},{3}", {1}, _e(3, ({0}, 2))),
    ("1: 1,2", {2}, _e(2, ({1}, 1))),
    ("1: 1 2", {1}, _e(2, ({0}, 1))),
    ("1: 1{2}", {2}, _e(2, ({1}, 1))),
    ("1: {1}2", {2}, _e(2, ({1}, 1))),
    ("1: +1,{2}", {1}, _e(2, ({0}, 1))),
    ("1: a,{1}", {2}, _refused(1)),
    ("1: -1", {1}, _refused(None)),
    ("1: 1x", {1}, _refused(1)),
    # leading comma
    ("1: ,{1}", {1}, _refused(1)),
    ("1: , {1}", {1}, _refused(1)),
    ("1: ,1", {1}, _refused(1)),
    # nested braces
    ("1: {{1}}", {1}, _refused(1)),
    ("1: {1,{2}}", {1}, _refused(1)),
    ("1: {1}}", {1}, _refused(1)),
    ("1: {1", {1}, _refused(1)),
    ("1: 1}", {1}, _refused(1)),
    ("1: }", {1}, _refused(1)),
    # weights
    ("+2: {1}", {1}, _e(1, ({0}, 2))),
    (" 2 : {1}", {1}, _e(1, ({0}, 2))),
    ("1_000: {1}", {1}, _e(1, ({0}, 1000))),
    ("0: {1}", {1}, _refused(1)),
    ("-1: {1}", {1}, _refused(1)),
    ("x: {1}", {1}, _refused(1)),
    ("2.0: {1}", {1}, _refused(1)),
    (": {1}", {1}, _refused(1)),
    ("{1}", {1}, _refused(1)),
    # metadata before and after the data lines
    ("# NUMBER ALTERNATIVES: 2\n1: {1},{2}\n# ALTERNATIVE NAME 1: x\n# ALTERNATIVE NAME 2: y",
     {1}, _e(("x", "y"), ({0}, 1))),
    ("1: {1},{2}\n# CATEGORY NAME 1: yes\n# CATEGORY NAME 2: no", {2}, _e(2, ({1}, 1))),
    ("# CATEGORY NAME 2: no\n1: {1},{2}\n# CATEGORY NAME 1: yes", {1}, _e(2, ({0}, 1))),
    ("# CATEGORY NAME 1: yes\n# CATEGORY NAME 2: no\n1: {1,2}", {1}, _refused(None)),
    ("# CATEGORY NAME 1: yes\n# CATEGORY NAME 3: no\n1: {1},{2}", {1}, _refused(None)),
    ("# CATEGORY NAME 1: yes\n1: {1},{2}", {2}, _refused(None)),
    ("# CATEGORY NAME  1: yes\n1: {1}", {1}, _e(1, ({0}, 1))),
    ("# CATEGORY NAME +1: yes\n1: {1}", {1}, _e(1, ({0}, 1))),
    ("# CATEGORY NAME x: no\n1: {1}", {1}, _refused(1)),
    ("# ALTERNATIVE NAME x: no\n1: {1}", {1}, _refused(1)),
    ("1: {1}\n# ALTERNATIVE NAME 1: only", {1}, _e(("only",), ({0}, 1))),
    ("1: {1}\n# ALTERNATIVE NAME 3: c\n# ALTERNATIVE NAME 0: z", {1}, _e(1, ({0}, 1))),
    ("# ALTERNATIVE NAME 1:\n1: {1}", {1}, _e(("",), ({0}, 1))),
    ("# NUMBER ALTERNATIVES: 2\n1: {1}\n# ALTERNATIVE NAME 2: b", {1}, _e(("a1", "b"), ({0}, 1))),
    ("# NUMBER ALTERNATIVES: 2\n1: {1,2}", {1}, _e(2, ({0, 1}, 1))),
    ("# NUMBER ALTERNATIVES: 1\n1: {1,2}", {1}, _refused(None)),
    ("# NUMBER ALTERNATIVES: x\n1: {1}", {1}, _refused(1)),
    ("# NUMBER ALTERNATIVES: 0\n1: {}", {1}, _refused(None)),
    ("# NUMBER ALTERNATIVES: 1", {1}, _refused(None)),
    ("# just a comment\n#\n1: {1}\n# trailing comment", {1}, _e(1, ({0}, 1))),
    ("# TITLE: t\n# NUMBER VOTERS: 3\n1: {1},{2}\n2: {2},{1}", {1}, _e(2, ({0}, 1), ({1}, 2))),
    ("1: {}", {1}, _refused(None)),
    ("1: {0}", {1}, _refused(None)),
    ("", {1}, _refused(None)),
    ("just text", {1}, _refused(1)),
    # an alternative in two groups, approved or not
    ("1: {1,2},{1}", {1}, _refused(1)),
    ("1: {1}\n1: {3},2,{2,4}", {1}, _refused(2)),
    ("1: {},{1},{}", {2}, _e(1, ({0}, 1))),
    # a repeated metadata key or index
    ("# ALTERNATIVE NAME 1: x\n# ALTERNATIVE NAME 1: y\n1: {1}", {1}, _refused(2)),
    ("# CATEGORY NAME 1: yes\n# CATEGORY NAME +1: no\n1: {1}", {1}, _refused(2)),
    ("# CATEGORY NAME 2: a\n1: {1},{2}\n# CATEGORY NAME 2: b", {1}, _refused(3)),
    ("# NUMBER ALTERNATIVES: 5\n1: {1},{2}\n# NUMBER ALTERNATIVES: 2", {1}, _refused(3)),
    ("# TITLE: t\n# TITLE: t\n1: {1}", {1}, _refused(2)),
]


@pytest.mark.parametrize("text,approved,expected", _PREFLIB_SPELLINGS)
def test_preflib_spellings_pinned(text, approved, expected):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = parse_preflib_categorical(text, approved)
    except FormatError as exc:
        result = _refused(exc.line)
    assert result == expected


# Each parsed into a 1,000,000-candidate election (6.7 s and a 170 MiB
# peak), or into one whose alternative 3 appears nowhere in the file.
@pytest.mark.parametrize("text,missing", [
    ("# NUMBER ALTERNATIVES: 1000000\n1: {1}\n", 2),
    ("1: {1000000}\n", 1),
    ("# NUMBER ALTERNATIVES: 3\n1: {1},{2}\n", 3),
])
def test_preflib_unmentioned_alternative_is_refused(text, missing):
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match=f"alternative {missing} never mentioned"):
            parse_preflib_categorical(text, {1})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("text", ["1: {1},{0}", "1: {1,2},{-5}", "1: {1},{2},3,{-1}"])
def test_preflib_unapproved_alternative_out_of_range(text):
    # Parsed when the bad alternative was in a group not approved.
    with pytest.raises(FormatError, match="must lie in 1.."):
        parse_preflib_categorical(text, {1})


@pytest.mark.parametrize("body", ["1" * 5000 + "{", "1 " * 2500 + "{", "{1}" * 1700 + "{"],
                         ids=["digits", "spaced", "braced"])
def test_preflib_long_malformed_line_fails_fast(body):
    # A group-list pattern that may split a bare token takes time
    # exponential in the token's length to refuse the first line.
    start = time.perf_counter()
    with pytest.raises(FormatError):
        parse_preflib_categorical(f"1: {body}\n", {1})
    assert time.perf_counter() - start < 0.5


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
