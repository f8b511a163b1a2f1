"""Parsing and serialization.

Three surfaces:

* the native election format (text; header ``pavls 1 <m> <k>``, one
  ``cand`` line per candidate, one ``ballot`` line per class);
* categorical preference files in the PrefLib style (``#`` metadata
  lines, then ``<count>: {..},{..},..`` data lines), flattened to an
  approval election by choosing which categories count as approval;
* CSV emission for run traces and aggregates, with exact fractions
  rendered as ``num/den`` strings.

Parsers read whole strings; callers own file handling.
"""

from __future__ import annotations

import csv
import io
import re
import warnings
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .core import BallotClass, Election, PavlsError


class FormatError(PavlsError):
    """Malformed input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: Optional[int] = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


# ---------------------------------------------------------------------------
# Native election format

_NATIVE_MAGIC = "pavls"
_NATIVE_VERSION = 1


def serialize_native(election: Election) -> str:
    """Canonical text form; committee size 0 encodes "unset".

    A candidate name must be non-empty, without leading or trailing
    whitespace and without a line break, or it would not parse back.
    """
    if not isinstance(election, Election):
        raise FormatError(f"can only serialize an Election, got {type(election).__name__}")
    k = election.committee_size if election.committee_size is not None else 0
    lines = [f"{_NATIVE_MAGIC} {_NATIVE_VERSION} {election.m} {k}"]
    for idx, name in enumerate(election.candidate_names):
        if not isinstance(name, str) or name.strip().splitlines() != [name]:
            raise FormatError(f"candidate {idx} name {name!r} would not round-trip")
        lines.append(f"cand {idx} {name}")
    # Entries are ints in [0, m); indexing their spelled-out forms is
    # faster than calling str on each.
    spelled = [str(c) for c in range(election.m)]
    for bc in election.ballot_classes:
        entries = " ".join(map(spelled.__getitem__, sorted(bc.approves)))
        lines.append(f"ballot {bc.weight}:{' ' if entries else ''}{entries}")
    return "\n".join(lines) + "\n"


_Body = TypeVar("_Body")


def _weighted(
    line: str, lineno: int, read_body: Callable[[str, int], _Body]
) -> tuple[int, _Body]:
    """Read ``<weight>: <body>``, the one form of a native ``ballot``
    line and a PrefLib data line: a positive int weight, then whatever
    ``read_body(body, lineno)`` returns."""
    head, sep, body = line.partition(":")
    if not sep:
        raise FormatError(f"line needs '<weight>:', got {line!r}", line=lineno)
    try:
        weight = int(head)
    except ValueError:
        raise FormatError(f"bad weight {head.strip()!r}", line=lineno)
    if weight < 1:
        raise FormatError(f"weight must be positive, got {weight}", line=lineno)
    return weight, read_body(body, lineno)


def parse_native(text: str) -> Election:
    """The election a native text spells (see :func:`serialize_native`).

    A ballot entry is whatever ``int`` reads.  Entries are looked up in
    one table per file, from each canonical spelling ``str(c)`` to ``c``;
    a line holding any other spelling (``+1``, ``01``, ``٣``, an entry
    past the table) takes the ``int`` conversion and range test, so all
    spellings read alike and each error keeps its message, line and
    order.

    Equal ballots are interned once read: the classes that repeat one
    share its first frozenset.  Keyed by the set, not by the line's
    text, the table holds nothing the election does not.
    """
    if not isinstance(text, str):
        raise FormatError(f"native text must be a str, got {type(text).__name__}")
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty input")
    header = lines[0].split()
    if len(header) != 4 or header[0] != _NATIVE_MAGIC:
        raise FormatError(f"bad header {lines[0]!r}", line=1)
    try:
        version, m, k = int(header[1]), int(header[2]), int(header[3])
    except ValueError:
        raise FormatError(f"non-integer header field in {lines[0]!r}", line=1)
    if version != _NATIVE_VERSION:
        raise FormatError(f"unsupported format version {version}", line=1)
    if m < 1 or k < 0 or k > m:
        raise FormatError(f"bad sizes m={m}, k={k}", line=1)

    # Each canonical spelling str(c) to c.  A valid file has a cand line
    # per candidate, so c < len(lines) bounds the table by the text and a
    # huge declared m allocates nothing.
    canonical = {str(c): c for c in range(min(m, len(lines)))}
    shared: dict[frozenset[int], frozenset[int]] = {}

    def read_ballot(body: str, lineno: int) -> frozenset[int]:
        tokens = body.split()
        try:
            # The table's values lie in [0, m), so no range test is due.
            entries = list(map(canonical.__getitem__, tokens))
        except KeyError:
            # Any other spelling int() reads (``+1``, ``01``, past the
            # table), or an error, takes the conversion and range test.
            try:
                entries = list(map(int, tokens))
            except ValueError:
                raise FormatError("non-integer ballot entry", line=lineno)
            # Whole-line tests in C; the first bad entry is named only on
            # failure, and a range error goes before an order error.
            if entries and (min(entries) < 0 or max(entries) >= m):
                bad = next(c for c in entries if not 0 <= c < m)
                raise FormatError(f"ballot entry {bad} out of range [0, {m})", line=lineno)
        # Sorted without a repeat is strictly increasing.
        ballot = frozenset(entries)
        if len(ballot) < len(entries) or entries != sorted(entries):
            raise FormatError("ballot entries must be strictly increasing", line=lineno)
        return shared.setdefault(ballot, ballot)

    # Keyed by index: a header declaring a huge m allocates nothing.
    names: dict[int, str] = {}
    classes: list[BallotClass] = []
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

    shared.clear()  # done with; freed before the Election's checks
    if len(names) < m:
        missing = next(i for i in range(m) if i not in names)
        raise FormatError(f"candidate {missing} never declared")
    if not classes:
        raise FormatError("no ballot lines")
    return Election(tuple(names[i] for i in range(m)), tuple(classes), None if k == 0 else k)


# ---------------------------------------------------------------------------
# PrefLib-style categorical ballots

_KNOWN_METADATA = {
    "FILE NAME", "TITLE", "DESCRIPTION", "DATA TYPE", "MODIFICATION TYPE",
    "RELATES TO", "RELATED FILES", "PUBLICATION DATE", "MODIFICATION DATE",
    "NUMBER ALTERNATIVES", "NUMBER VOTERS", "NUMBER UNIQUE PREFERENCES",
    "NUMBER CATEGORIES",
}
# A group is a braced list or a bare token; groups are separated by a
# run, maybe empty, of commas, spaces and tabs, and no comma leads.  The
# lookahead keeps a bare token whole: without it a long line that fails
# would be retried at every way of splitting its bare tokens, exponential
# in their length, instead of once.
_GROUP = r"\{[^{}]*\}|[^,{}\s]+(?![^,{}\s])"
_GROUP_RE = re.compile(_GROUP)
_GROUP_LIST_RE = re.compile(rf"(?:(?:{_GROUP})[, \t]*)*")


def _split_groups(body: str, lineno: int) -> list[frozenset[int]]:
    body = body.strip()
    if not _GROUP_LIST_RE.fullmatch(body):
        raise FormatError(f"malformed group list {body!r}", line=lineno)
    # A bare token holds no brace and a braced one none inside, so
    # stripping braces leaves the comma-separated alternatives.
    inners = [token.strip("{}") for token in _GROUP_RE.findall(body)]
    try:
        groups = [frozenset(map(int, i.split(","))) if i.strip() else frozenset() for i in inners]
    except ValueError:
        raise FormatError(f"non-integer alternative in group list {body!r}", line=lineno)
    # The groups partition the line's alternatives into categories.
    seen: frozenset[int] = frozenset()
    for group in groups:
        if seen & group:
            raise FormatError(f"alternative {min(seen & group)} is in two groups", line=lineno)
        seen |= group
    return groups


def parse_preflib_categorical(
    text: str, approved_category_indices: Iterable[int]
) -> Election:
    """Flatten a categorical preference file to an approval election.

    ``approved_category_indices`` are 1-based positions in the file's
    ordered category list; a voter's approval set is the union of the
    chosen categories' groups.  The result has no committee size.

    The alternatives are 1..m, where m is the declared ``NUMBER
    ALTERNATIVES`` or else the largest alternative in any group.  Every
    alternative in every group, approved or not, must lie in 1..m, and
    each of 1..m must appear in some group or on an ``ALTERNATIVE NAME``
    line, so the file's own length bounds m.
    """
    if not isinstance(text, str):
        raise FormatError(f"preference text must be a str, got {type(text).__name__}")
    try:
        approved = set(approved_category_indices)
    except TypeError:  # not iterable, or holds an unhashable index
        raise FormatError(
            f"approved categories must be an iterable of ints, got {approved_category_indices!r}"
        ) from None
    if not approved:
        raise FormatError("need at least one approved category")
    # Exact ints from 1: without category names nothing else bounds an
    # index, and groups[idx - 1] would read 0 and -1 from the end.
    for idx in approved:
        if type(idx) is not int or idx < 1:
            raise FormatError(f"approved categories are 1-based ints, got {idx!r}")

    categories: dict[int, str] = {}
    alt_names: dict[int, str] = {}
    indexed = {"CATEGORY NAME ": categories, "ALTERNATIVE NAME ": alt_names}
    known: dict[str, str] = {}  # the other metadata read
    declared: Optional[int] = None
    ballots: list[tuple[int, list[frozenset[int]]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            ballots.append(_weighted(line, lineno, _split_groups))
            continue
        key, sep, value = line[1:].partition(":")
        if not sep:  # a blank line, or a comment without a key
            continue
        key, value = key.strip(), value.strip()
        prefix = next((p for p in indexed if key.startswith(p)), None)
        if prefix is not None:
            try:
                table, key = indexed[prefix], int(key[len(prefix):])
            except ValueError:
                raise FormatError(f"bad index in key {key!r}", line=lineno)
        elif key in _KNOWN_METADATA:
            table = known
        else:
            warnings.warn(f"line {lineno}: unknown metadata key {key!r}")
            continue
        # A second value would overwrite the first, as a repeated native
        # cand index would.
        if key in table:
            raise FormatError(f"repeated metadata key in {line!r}", line=lineno)
        table[key] = value
        if key == "NUMBER ALTERNATIVES":
            try:
                declared = int(value)
            except ValueError:
                raise FormatError(f"bad alternative count {value!r}", line=lineno)

    if not ballots:
        raise FormatError("no data lines")
    if categories:
        n_cat = len(categories)
        if set(categories) != set(range(1, n_cat + 1)):
            raise FormatError(f"category keys {sorted(categories)} are not 1..{n_cat}")
        bad = approved - set(categories)
        if bad:
            raise FormatError(f"unknown approved category {sorted(bad)[0]}")
        if any(len(groups) != n_cat for _, groups in ballots):
            raise FormatError(f"a data line does not have the {n_cat} declared categories")

    alternatives = {alt for _, groups in ballots for group in groups for alt in group}
    m = max(alternatives, default=0) if declared is None else declared
    outside = sorted(alt for alt in alternatives if not 1 <= alt <= m)
    if outside or m < 1:
        raise FormatError(f"alternatives must lie in 1..{m} with m >= 1, got {outside[:3]}")
    missing = next((i for i in range(1, m + 1) if i not in alternatives and i not in alt_names), 0)
    if missing:
        raise FormatError(f"alternative {missing} never mentioned")

    classes = tuple(
        BallotClass(
            frozenset(alt - 1 for idx in approved if idx <= len(groups) for alt in groups[idx - 1]),
            count,
        )
        for count, groups in ballots
    )
    names = tuple(alt_names.get(i, f"a{i}") for i in range(1, m + 1))
    return Election(names, classes, None)


# ---------------------------------------------------------------------------
# CSV emission


def write_csv(rows: Iterable[dict], columns: Sequence[str]) -> str:
    """Render rows under a fixed column schema.

    Every row must have exactly the schema's keys.  Fractions are
    written as exact ``num/den`` strings.
    """
    try:
        columns = tuple(columns)
        numbered = enumerate(rows)
    except TypeError:
        raise FormatError(f"need iterable rows and columns, got {rows!r}, {columns!r}") from None
    if not all(isinstance(c, str) for c in columns):
        raise FormatError(f"column names must be strs, got {columns!r}")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    expected = set(columns)
    for i, row in numbered:
        if not isinstance(row, dict) or set(row) != expected:
            raise FormatError(f"row {i} {row!r} does not match schema {sorted(expected)}")
        writer.writerow([row[col] for col in columns])
    return buf.getvalue()
