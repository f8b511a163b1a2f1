"""Experiment orchestration: repeated seeded runs and CSV aggregation.

An experiment is a pure function of its config.  The seed schedule is
part of the contract: repetition ``rep`` at the ``ki``-th committee
size runs with seed ``base_seed * 1_000_003 + (ki * repetitions + rep)``,
so repetitions are independent and reproducible regardless of execution
order.  A config with more than 1_000_003 cells is rejected, since its
seeds would run into those of the next base seed.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence, Union

from .core import Election, Epsilon, PavlsError
from .formats import write_csv
from .samplers import SamplerConfig, sample
from .search import RULES, run

RULE_NAMES = tuple(RULES)

RUNS_COLUMNS = ("model", "k", "rule", "rep", "seed", "swaps", "comparisons", "error")
AGGREGATE_COLUMNS = (
    "model", "k", "rule", "repetitions",
    "comparisons_min", "comparisons_q25", "comparisons_median",
    "comparisons_q75", "comparisons_max",
    "swaps_min", "swaps_median", "swaps_max",
)


class HarnessError(PavlsError):
    pass


SEED_STRIDE = 1_000_003


@dataclass(frozen=True)
class ExperimentConfig:
    """Source is either a sampler config (resampled per repetition with
    the scheduled seed) or a fixed election (reused as-is)."""

    source: Union[SamplerConfig, Election]
    k_values: tuple[int, ...]
    repetitions: int = 1
    rules: tuple[str, ...] = RULE_NAMES
    epsilon: Union[str, Fraction] = "zero-plus"  # see Epsilon.check_selector
    base_seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(self.k_values))
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "epsilon", Epsilon.check_selector(self.epsilon))
        if not self.k_values:
            raise HarnessError("need at least one committee size")
        if self.repetitions < 1:
            raise HarnessError(f"repetitions must be >= 1, got {self.repetitions}")
        cells = len(self.k_values) * self.repetitions
        if cells > SEED_STRIDE:
            raise HarnessError(
                f"{cells} (k, repetition) cells exceed {SEED_STRIDE}; their seeds "
                "would collide with those of the next base seed"
            )
        bad = [r for r in self.rules if r not in RULE_NAMES]
        if bad:
            raise HarnessError(f"unknown rule {bad[0]!r}; choose from {RULE_NAMES}")
        if not self.rules:
            raise HarnessError("need at least one pivoting rule")


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
    k = election.require_committee_size()
    totals = [0] * election.m
    for bc in election.ballot_classes:
        for c in bc.approves:
            totals[c] += bc.weight
    ranked = sorted(range(election.m), key=lambda c: (-totals[c], c))
    return frozenset(ranked[:k])


def run_seed(base_seed: int, k_index: int, repetitions: int, rep: int) -> int:
    return base_seed * SEED_STRIDE + (k_index * repetitions + rep)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    runs: list[dict]
    aggregates: list[dict]

    def runs_csv(self) -> str:
        return write_csv(self.runs, RUNS_COLUMNS)

    def aggregate_csv(self) -> str:
        return write_csv(self.aggregates, AGGREGATE_COLUMNS)


def nearest_rank(sorted_values: Sequence[int], q: Fraction) -> int:
    """q-th quantile as the value at 1-based index ceil(q * N)."""
    if not sorted_values:
        raise HarnessError("quantile of empty list")
    idx = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[idx - 1]


def aggregate(rows: Sequence[dict]) -> list[dict]:
    """Group per (model, k, rule) and compute nearest-rank spread
    statistics over the successful runs.  Groups with no successful run
    are skipped with a warning."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
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
    set-up failure is every rule's error."""
    try:
        if isinstance(config.source, Election):
            election = config.source.with_committee_size(k)
        else:
            election = sample(replace(config.source, seed=seed)).with_committee_size(k)
        initial = select_initial_committee(election)
        epsilon = Epsilon.resolve(config.epsilon, election)
    except (PavlsError, ValueError) as exc:
        return [("", "", str(exc))] * len(config.rules)
    outcomes = []
    for rule_name in config.rules:
        try:
            trace = run(election, initial, epsilon, RULES[rule_name])
            outcomes.append((trace.swaps, trace.comparisons, ""))
        except (PavlsError, ValueError) as exc:
            outcomes.append(("", "", str(exc)))
    return outcomes


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute every (k, repetition, rule) cell in deterministic order.

    Per repetition the election is sampled once (or the fixed election
    reused) and every rule runs on it from the max-approval committee.
    Failures are recorded in the row's error column; the experiment
    continues.
    """
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
    return ExperimentResult(config=config, runs=rows, aggregates=aggregate(rows))


def write_outputs(result: ExperimentResult, out_dir: Union[str, Path]) -> tuple[Path, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runs_path = out / "runs.csv"
    agg_path = out / "aggregate.csv"
    runs_path.write_text(result.runs_csv())
    agg_path.write_text(result.aggregate_csv())
    return runs_path, agg_path
