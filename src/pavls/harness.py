"""Experiment orchestration: repeated seeded runs and CSV aggregation.

An experiment is a pure function of its config and does no file I/O;
the CLI writes ``runs_csv()`` and ``aggregate_csv()`` to ``runs.csv``
and ``aggregate.csv``.  The seed schedule is part of the contract:
repetition ``rep`` at the ``ki``-th committee size runs with seed
``base_seed * 1_000_003 + (ki * repetitions + rep)``, so repetitions are
independent and reproducible regardless of execution order.  A config
with more than 1_000_003 cells is rejected, since its seeds would run
into those of the next base seed; so is a negative base seed, whose
seeds ``random.Random`` would read as their absolute values.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Union

from .core import Election, Epsilon, PavlsError, check_election
from .formats import write_csv
from .samplers import SamplerConfig, sample
from .search import RULES, run

RUNS_COLUMNS = ("model", "k", "rule", "rep", "seed", "swaps", "comparisons", "error")
AGGREGATE_COLUMNS = (
    "model", "k", "rule", "repetitions",
    "comparisons_min", "comparisons_q25", "comparisons_median",
    "comparisons_q75", "comparisons_max",
    "swaps_min", "swaps_median", "swaps_max",
)


class HarnessError(PavlsError):
    pass


class InvalidQuantileError(HarnessError, IndexError):
    """A quantile outside [0, 1] (also an IndexError)."""


SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class ExperimentConfig:
    """Source is either a sampler config (resampled per repetition with
    the scheduled seed) or a fixed election (run once per cell, so with
    one repetition)."""

    source: Union[SamplerConfig, Election]
    k_values: tuple[int, ...]
    repetitions: int = 1
    rules: tuple[str, ...] = tuple(RULES)
    epsilon: Union[str, Fraction] = "zero-plus"  # see Epsilon.check_selector
    base_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.source, (SamplerConfig, Election)):
            raise HarnessError(
                f"source must be a SamplerConfig or an Election, got {self.source!r}"
            )
        # Exact ints: a string would split into digit strings and bytes
        # into character codes, and each k is written to runs.csv as
        # given.  A k the election cannot seat stays a per-cell error.
        object.__setattr__(self, "k_values", _tuple_of(self.k_values, int, "k_values"))
        # A bare string would split into one-letter rules.
        object.__setattr__(self, "rules", _tuple_of(self.rules, str, "rules"))
        object.__setattr__(self, "epsilon", Epsilon.check_selector(self.epsilon))
        if not self.k_values:
            raise HarnessError("need at least one committee size")
        # Exact ints: True would run one repetition, and a string or a
        # float would fail deep inside the seed schedule.
        if type(self.repetitions) is not int or self.repetitions < 1:
            raise HarnessError(f"repetitions must be an int >= 1, got {self.repetitions!r}")
        # A fixed election has no randomness, and both the initial committee
        # and the rules are deterministic: every repetition would be the same.
        if isinstance(self.source, Election) and self.repetitions > 1:
            raise HarnessError(
                f"a fixed election runs once per (k, rule), got repetitions={self.repetitions}"
            )
        # Base seed -1's first cell would sample base seed 1's election.
        if type(self.base_seed) is not int or self.base_seed < 0:
            raise HarnessError(f"base seed must be an int >= 0, got {self.base_seed!r}")
        cells = len(self.k_values) * self.repetitions
        if cells > SEED_STRIDE:
            raise HarnessError(
                f"{cells} (k, repetition) cells exceed {SEED_STRIDE}; their seeds "
                "would collide with those of the next base seed"
            )
        bad = [r for r in self.rules if r not in RULES]
        if bad:
            raise HarnessError(f"unknown rule {bad[0]!r}; choose from {tuple(RULES)}")
        if not self.rules:
            raise HarnessError("need at least one pivoting rule")
        # A repeated rule or k would run its cells twice, and aggregate.csv
        # would count them as one group of twice the repetitions.
        for name, values in (("rule", self.rules), ("k", self.k_values)):
            if len(set(values)) < len(values):
                raise HarnessError(f"repeated {name} in {values!r}")


def _tuple_of(values: object, kind: type, name: str) -> tuple:
    """``values`` as a tuple; :class:`HarnessError` unless it is an
    iterable, but not a str or bytes, of exact ``kind`` instances."""
    try:
        items = None if isinstance(values, (str, bytes)) else tuple(values)
    except TypeError:
        items = None
    if items is None or any(type(v) is not kind for v in items):
        raise HarnessError(f"{name} must be an iterable of {kind.__name__}s, got {values!r}")
    return items


def _model_tag(source: Union[SamplerConfig, Election]) -> str:
    if isinstance(source, Election):
        return "fixed"
    model = source.model
    params = ",".join(
        f"{name}={getattr(model, name)}" for name in model.__dataclass_fields__
    )
    return f"{type(model).__name__}({params};n={source.n},m={source.m})"


def select_initial_committee(election: Election) -> frozenset[int]:
    """The k candidates with highest total approval weight; ties broken
    by lowest candidate index."""
    check_election(election)
    k = election.require_committee_size()
    # A candidate's total is the sum over weight groups of the weight times
    # the number of the group's classes approving it; the search reuses
    # both indexes.
    groups = election.weight_masks
    totals = [
        sum(weight * (mask & group).bit_count() for weight, group in groups)
        for mask in election.approval_masks
    ]
    ranked = sorted(range(election.m), key=lambda c: (-totals[c], c))
    return frozenset(ranked[:k])


def run_seed(base_seed: int, k_index: int, repetitions: int, rep: int) -> int:
    return base_seed * SEED_STRIDE + (k_index * repetitions + rep)


@dataclass
class ExperimentResult:
    runs: list[dict]
    aggregates: list[dict]

    def runs_csv(self) -> str:
        return write_csv(self.runs, RUNS_COLUMNS)

    def aggregate_csv(self) -> str:
        return write_csv(self.aggregates, AGGREGATE_COLUMNS)


def nearest_rank(sorted_values: Sequence[int], q: Fraction) -> int:
    """q-th quantile as the value at 1-based index ceil(q * N)."""
    # Exact: a float q can round ceil(q * N) up a rank, and unsorted or
    # non-int values would give a number that is no quantile.
    if not isinstance(sorted_values, Sequence) or any(type(v) is not int for v in sorted_values):
        raise HarnessError(f"quantile needs a sequence of ints, got {sorted_values!r}")
    if any(a > b for a, b in zip(sorted_values, sorted_values[1:])):
        raise HarnessError(f"quantile needs sorted values, got {sorted_values!r}")
    if not sorted_values:
        raise HarnessError("quantile of empty list")
    if type(q) is not int and not isinstance(q, Fraction):
        raise HarnessError(f"quantile must be an int or a Fraction, got {q!r}")
    if not 0 <= q <= 1:
        raise InvalidQuantileError(f"quantile must be in [0, 1], got {q}")
    idx = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[idx - 1]


def _check_run_row(i: int, row: object) -> None:
    """Raise :class:`HarnessError` unless ``row`` holds what
    :func:`aggregate` reads of a runs row: a str model, rule and error,
    an int k, and int swaps and comparisons if the error is empty."""
    read = {"model", "k", "rule", "swaps", "comparisons", "error"}
    ok = isinstance(row, dict) and read <= row.keys()
    if ok:
        ints = (row["k"],) if row["error"] else (row["k"], row["swaps"], row["comparisons"])
        strs = (row["model"], row["rule"], row["error"])
        ok = all(type(v) is int for v in ints) and all(isinstance(v, str) for v in strs)
    if not ok:
        raise HarnessError(f"row {i} is not a runs row: {row!r}")


def aggregate(rows: Iterable[dict]) -> list[dict]:
    """Group per (model, k, rule) and compute nearest-rank spread
    statistics over the successful runs.  Groups with no successful run
    are skipped with a warning."""
    try:
        numbered = enumerate(rows)
    except TypeError:
        raise HarnessError(f"rows must be an iterable of runs rows, got {rows!r}") from None
    groups: dict[tuple, list[dict]] = {}
    for i, row in numbered:
        _check_run_row(i, row)
        groups.setdefault((row["model"], row["k"], row["rule"]), []).append(row)
    out = []
    for key, group in groups.items():
        good = [r for r in group if not r["error"]]
        if not good:
            warnings.warn(f"group {key} has no successful runs; skipped")
            continue
        comparisons = sorted(r["comparisons"] for r in good)
        swaps = sorted(r["swaps"] for r in good)
        model, k, rule = key
        out.append({
            "model": model, "k": k, "rule": rule, "repetitions": len(good),
            "comparisons_min": comparisons[0],
            "comparisons_q25": nearest_rank(comparisons, Fraction(1, 4)),
            "comparisons_median": nearest_rank(comparisons, Fraction(1, 2)),
            "comparisons_q75": nearest_rank(comparisons, Fraction(3, 4)),
            "comparisons_max": comparisons[-1],
            "swaps_min": swaps[0],
            "swaps_median": nearest_rank(swaps, Fraction(1, 2)),
            "swaps_max": swaps[-1],
        })
    return out


def _cell_outcomes(config: ExperimentConfig, k: int, seed: int) -> list[tuple]:
    """(swaps, comparisons, error) of each rule on one (k, seed) cell; a
    set-up :class:`PavlsError` is every rule's error.  Any other exception
    is a fault, not an outcome, and propagates."""
    try:
        if isinstance(config.source, Election):
            election = config.source.with_committee_size(k)
        else:
            election = sample(replace(config.source, seed=seed)).with_committee_size(k)
        initial = select_initial_committee(election)
        epsilon = Epsilon.resolve(config.epsilon, election)
    except PavlsError as exc:
        return [("", "", str(exc))] * len(config.rules)
    outcomes = []
    for rule_name in config.rules:
        try:
            trace = run(election, initial, epsilon, RULES[rule_name])
            outcomes.append((trace.swaps, trace.comparisons, ""))
        except PavlsError as exc:
            outcomes.append(("", "", str(exc)))
    return outcomes


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute every (k, repetition, rule) cell in deterministic order.

    Per repetition the election is sampled once (or the fixed election
    reused) and every rule runs on it from the max-approval committee.
    A :class:`PavlsError`, such as a k the election cannot seat, is
    recorded in the row's error column and the experiment continues;
    any other exception propagates.
    """
    if not isinstance(config, ExperimentConfig):
        raise HarnessError(f"not an ExperimentConfig: {config!r}")
    model = _model_tag(config.source)
    rows: list[dict] = []
    for ki, k in enumerate(config.k_values):
        for rep in range(config.repetitions):
            seed = run_seed(config.base_seed, ki, config.repetitions, rep)
            outcomes = _cell_outcomes(config, k, seed)
            for rule_name, (swaps, comparisons, error) in zip(config.rules, outcomes):
                rows.append({
                    "model": model, "k": k, "rule": rule_name, "rep": rep,
                    "seed": seed, "swaps": swaps, "comparisons": comparisons, "error": error,
                })
    return ExperimentResult(runs=rows, aggregates=aggregate(rows))
