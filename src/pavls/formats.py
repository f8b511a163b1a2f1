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
from fractions import Fraction
from typing import Iterable, Optional, Sequence

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
    k = election.committee_size if election.committee_size is not None else 0
    lines = [f"{_NATIVE_MAGIC} {_NATIVE_VERSION} {election.m} {k}"]
    for idx, name in enumerate(election.candidate_names):
        if not isinstance(name, str) or name.strip().splitlines() != [name]:
            raise FormatError(f"candidate {idx} name {name!r} would not round-trip")
        lines.append(f"cand {idx} {name}")
    for bc in election.ballot_classes:
        entries = " ".join(str(c) for c in sorted(bc.approves))
        lines.append(f"ballot {bc.weight}:{' ' if entries else ''}{entries}")
    return "\n".join(lines) + "\n"


def parse_native(text: str) -> Election:
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

    names: list[Optional[str]] = [None] * m
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
            if names[idx] is not None:
                raise FormatError(f"duplicate candidate index {idx}", line=lineno)
            names[idx] = parts[2]
        elif line.startswith("ballot "):
            head, sep, tail = line[len("ballot "):].partition(":")
            if not sep:
                raise FormatError("ballot line needs a ':' after the weight", line=lineno)
            try:
                weight = int(head.strip())
            except ValueError:
                raise FormatError(f"bad ballot weight {head.strip()!r}", line=lineno)
            if weight < 1:
                raise FormatError(f"ballot weight must be positive, got {weight}", line=lineno)
            try:
                entries = [int(tok) for tok in tail.split()]
            except ValueError:
                raise FormatError("non-integer ballot entry", line=lineno)
            for c in entries:
                if not 0 <= c < m:
                    raise FormatError(f"ballot entry {c} out of range [0, {m})", line=lineno)
            if entries != sorted(set(entries)):
                raise FormatError("ballot entries must be strictly increasing", line=lineno)
            classes.append(BallotClass(frozenset(entries), weight))
        else:
            raise FormatError(f"unrecognized line {line!r}", line=lineno)

    missing = [i for i, name in enumerate(names) if name is None]
    if missing:
        raise FormatError(f"candidate {missing[0]} never declared")
    if not classes:
        raise FormatError("no ballot lines")
    return Election(tuple(names), tuple(classes), None if k == 0 else k)


# ---------------------------------------------------------------------------
# PrefLib-style categorical ballots

_KNOWN_METADATA = {
    "FILE NAME", "TITLE", "DESCRIPTION", "DATA TYPE", "MODIFICATION TYPE",
    "RELATES TO", "RELATED FILES", "PUBLICATION DATE", "MODIFICATION DATE",
    "NUMBER ALTERNATIVES", "NUMBER VOTERS", "NUMBER UNIQUE PREFERENCES",
    "NUMBER CATEGORIES",
}
_GROUP_RE = re.compile(r"\{[^{}]*\}|[^,{}\s]+")


def _split_groups(body: str, lineno: int) -> list[frozenset[int]]:
    groups: list[frozenset[int]] = []
    pos = 0
    body = body.strip()
    while pos < len(body):
        match = _GROUP_RE.match(body, pos)
        if not match:
            raise FormatError(f"malformed group list {body!r}", line=lineno)
        token = match.group()
        try:
            if token.startswith("{"):
                inner = token[1:-1].strip()
                groups.append(
                    frozenset(int(t) for t in inner.split(",")) if inner else frozenset()
                )
            else:
                groups.append(frozenset({int(token)}))
        except ValueError:
            raise FormatError(f"non-integer alternative in group {token!r}", line=lineno)
        pos = match.end()
        while pos < len(body) and body[pos] in ", \t":
            pos += 1
    return groups


def parse_preflib_categorical(
    text: str, approved_category_indices: Iterable[int]
) -> Election:
    """Flatten a categorical preference file to an approval election.

    ``approved_category_indices`` are 1-based positions in the file's
    ordered category list; a voter's approval set is the union of the
    chosen categories' groups.  The result has no committee size.
    """
    approved = set(approved_category_indices)
    if not approved:
        raise FormatError("need at least one approved category")

    categories: dict[int, str] = {}
    alt_names: dict[int, str] = {}
    num_alternatives: Optional[int] = None
    ballots: list[tuple[int, list[frozenset[int]]]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            key, value = key.strip(), value.strip()
            if not sep:
                continue
            if key == "NUMBER ALTERNATIVES":
                try:
                    num_alternatives = int(value)
                except ValueError:
                    raise FormatError(f"bad alternative count {value!r}", line=lineno)
            elif key.startswith("CATEGORY NAME "):
                try:
                    categories[int(key[len("CATEGORY NAME "):])] = value
                except ValueError:
                    raise FormatError(f"bad category key {key!r}", line=lineno)
            elif key.startswith("ALTERNATIVE NAME "):
                try:
                    alt_names[int(key[len("ALTERNATIVE NAME "):])] = value
                except ValueError:
                    raise FormatError(f"bad alternative key {key!r}", line=lineno)
            elif key not in _KNOWN_METADATA:
                warnings.warn(f"line {lineno}: unknown metadata key {key!r}")
            continue
        head, sep, tail = line.partition(":")
        if not sep:
            raise FormatError(f"data line needs '<count>:', got {line!r}", line=lineno)
        try:
            count = int(head.strip())
        except ValueError:
            raise FormatError(f"bad ballot count {head.strip()!r}", line=lineno)
        if count < 1:
            raise FormatError(f"ballot count must be positive, got {count}", line=lineno)
        ballots.append((count, _split_groups(tail, lineno)))

    if not ballots:
        raise FormatError("no data lines")
    if categories:
        n_cat = len(categories)
        if set(categories) != set(range(1, n_cat + 1)):
            raise FormatError(f"category keys {sorted(categories)} are not 1..{n_cat}")
        bad = approved - set(categories)
        if bad:
            raise FormatError(f"unknown approved category {sorted(bad)[0]}")

    seen_max = max(
        (alt for _, groups in ballots for group in groups for alt in group), default=0
    )
    if num_alternatives is None:
        num_alternatives = seen_max
    elif seen_max > num_alternatives:
        raise FormatError(
            f"alternative {seen_max} exceeds declared count {num_alternatives}"
        )
    if num_alternatives < 1:
        raise FormatError("no alternatives in file")

    classes = []
    for count, groups in ballots:
        if categories and len(groups) != len(categories):
            raise FormatError(
                f"data line has {len(groups)} groups but file declares "
                f"{len(categories)} categories"
            )
        chosen = frozenset(
            alt for idx in approved if idx <= len(groups) for alt in groups[idx - 1]
        )
        for alt in chosen:
            if not 1 <= alt <= num_alternatives:
                raise FormatError(f"alternative {alt} out of range [1, {num_alternatives}]")
        classes.append(BallotClass(frozenset(alt - 1 for alt in chosen), count))

    names = tuple(alt_names.get(i, f"a{i}") for i in range(1, num_alternatives + 1))
    return Election(names, tuple(classes), None)


# ---------------------------------------------------------------------------
# CSV emission


def _render_cell(value: object) -> object:
    if isinstance(value, Fraction):
        return str(value)  # "num/den", or plain integer string
    return value


def write_csv(rows: Iterable[dict], columns: Sequence[str]) -> str:
    """Render rows under a fixed column schema.

    Every row must have exactly the schema's keys.  Fractions are
    written as exact ``num/den`` strings.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    expected = set(columns)
    for i, row in enumerate(rows):
        if set(row) != expected:
            raise FormatError(
                f"row {i} keys {sorted(row)} do not match schema {sorted(expected)}"
            )
        writer.writerow([_render_cell(row[col]) for col in columns])
    return buf.getvalue()
