"""Command-line interface.

Subcommands: sample, construct, certify, run, experiment, oracle.
Exit code 0 only if every requested certification or run succeeded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import constructions as cons
from .core import Election, Epsilon, PavlsError, Swap, pav_score, validate_sequence
from .formats import FormatError, parse_native, parse_preflib_categorical, serialize_native
from .harness import (
    RULE_NAMES,
    ExperimentConfig,
    run_experiment,
    select_initial_committee,
    write_outputs,
)
from .oracle import DEFAULT_ENUMERATION_CAP, brute_force_optimum, is_locally_optimal
from .samplers import MODELS, SamplerConfig, sample
from .search import RULES, run as run_search


def _parse_int_list(text: str, line: Optional[int] = None) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise FormatError(f"expected integers, got {text.strip()!r}", line=line) from None


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise PavlsError(f"cannot read {path}: {exc}") from None


def _load_election(args) -> Election:
    if args.election is None:
        raise PavlsError(f"{args.command} needs --election")
    text = _read_text(args.election)
    if args.format == "preflib-cat":
        cats = set(_parse_int_list(args.approve_categories or "1"))
        election = parse_preflib_categorical(text, cats)
    else:
        election = parse_native(text)
    if args.k is not None:
        election = election.with_committee_size(args.k)
    return election


def _read_committee(path: str) -> list[int]:
    lines = _read_text(path).splitlines()
    return [c for lineno, line in enumerate(lines, 1) for c in _parse_int_list(line, lineno)]


def _read_sequence(path: str) -> list[Swap]:
    seq = []
    for lineno, line in enumerate(_read_text(path).splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pair = _parse_int_list(line, lineno)
        if len(pair) != 2:
            raise FormatError(f"swap line needs 'out in', got {line!r}", line=lineno)
        seq.append(Swap(*pair))
    return seq


def _write_sequence(path: str, seq: list[Swap]) -> None:
    Path(path).write_text(
        "".join(f"{s.out_candidate} {s.in_candidate}\n" for s in seq)
    )


def _add_election_args(
    p: argparse.ArgumentParser, required: bool = True, with_k: bool = True
) -> None:
    """The election input options and the epsilon selector."""
    p.add_argument("--election", required=required, help="election file")
    p.add_argument("--format", choices=("native", "preflib-cat"), default="native")
    p.add_argument(
        "--approve-categories",
        help="comma-separated 1-based category indices counted as approval "
        "(preflib-cat only; default 1)",
    )
    if with_k:
        p.add_argument("-k", type=int, help="committee size (overrides the file's)")
    p.add_argument("--epsilon", default="zero-plus",
                   help="zero-plus | threshold | a fraction like 28/3")


def _add_model_args(p: argparse.ArgumentParser, required: bool) -> None:
    # Each model reads its dataclass fields from the options of the same name.
    p.add_argument("--model", choices=tuple(MODELS), required=required)
    p.add_argument("-p", type=float, default=0.5, help="approval probability")
    p.add_argument("--phi", type=float, default=0.5, help="resampling probability")
    p.add_argument("-d", type=int, default=2, help="Euclidean dimension")
    p.add_argument("-r", type=float, default=0.25, help="Euclidean radius")


def _sampler_config(args, seed: int) -> SamplerConfig:
    model = MODELS[args.model]
    params = (getattr(args, name) for name in model.__dataclass_fields__)
    return SamplerConfig(model(*params), args.n, args.m, seed)


def _cmd_sample(args) -> int:
    election = sample(_sampler_config(args, args.seed))
    if args.k is not None:
        election = election.with_committee_size(args.k)
    text = serialize_native(election)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _gamma(text: Optional[str]) -> Optional[Fraction]:
    if not text:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise cons.ConstructionError(f"gamma must be a fraction, got {text!r}") from None


def _construct(args) -> tuple[cons.LabeledElection, Optional[list[Swap]], Optional[frozenset[int]]]:
    fam = args.family
    if fam == "warmup":
        labeled = cons.warmup_election(args.k)
        return labeled, cons.warmup_sequence(args.k), cons.warmup_initial_committee(labeled)
    if fam == "f":
        return cons.f_election(args.j, args.k), None, None
    if fam == "e":
        return cons.e_election(args.j, args.k), None, None
    if fam == "et":
        return cons.e_t_election(args.t, args.j, args.k), None, None
    params = cons.LayeredParams(levels=args.levels, k=args.k)
    if fam == "layered":
        labeled = cons.layered_election(params)
        seq = list(cons.iter_x_sequence(params, params.levels, 1))
    else:  # hardened
        labeled = cons.hardened_election(cons.HardenedParams(params, _gamma(args.gamma)))
        seq = list(cons.iter_z_sequence(params, params.levels, 1))
    return labeled, seq, cons.layered_initial_committee(params)


def _cmd_construct(args) -> int:
    labeled, seq, initial = _construct(args)
    if args.sequence_out and seq is None:
        raise PavlsError(f"family {args.family!r} has no associated sequence")
    if args.initial_out and initial is None:
        raise PavlsError(f"family {args.family!r} has no associated committee")
    text = serialize_native(labeled.election)
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if args.labels_out:
        sidecar = {
            "candidate_labels": labeled.candidate_labels,
            "voter_groups": {g: sorted(v) for g, v in labeled.voter_groups.items()},
            "counterpart": labeled.counterpart,
        }
        Path(args.labels_out).write_text(json.dumps(sidecar, indent=2) + "\n")
    if args.sequence_out:
        _write_sequence(args.sequence_out, seq)
    if args.initial_out:
        Path(args.initial_out).write_text(" ".join(map(str, sorted(initial))) + "\n")
    return 0


def _cmd_certify(args) -> int:
    election = _load_election(args)
    initial = _read_committee(args.initial)
    seq = _read_sequence(args.sequence)
    eps = Epsilon.resolve(args.epsilon, election)
    cert = validate_sequence(election, initial, seq, eps)
    print(f"steps: {cert.steps}")
    print(f"structurally valid: {cert.structurally_valid}")
    if cert.first_invalid_step is not None:
        print(f"first invalid step: {cert.first_invalid_step}")
    print(f"total gain: {cert.total_gain}")
    print(f"epsilon: {cert.epsilon}")
    print(f"certified good: {cert.certified_good}")
    return 0 if cert.certified_good else 1


def _cmd_run(args) -> int:
    election = _load_election(args)
    initial = (
        _read_committee(args.initial) if args.initial
        else select_initial_committee(election)
    )
    eps = Epsilon.resolve(args.epsilon, election)
    trace = run_search(election, initial, eps, RULES[args.rule], step_cap=args.step_cap)
    print(f"initial committee: {sorted(trace.initial_committee)}")
    print(f"swaps: {trace.swaps}")
    print(f"comparisons: {trace.comparisons}")
    print(f"terminated: {trace.terminated}")
    print(f"final committee: {sorted(trace.final_committee)}")
    print(f"final score: {pav_score(election, trace.final_committee)}")
    return 0 if trace.terminated else 1


def _cmd_experiment(args) -> int:
    if args.election:
        source = _load_election(args)
    elif args.model:
        source = _sampler_config(args, 0)
    else:
        raise PavlsError("experiment needs --election or --model")
    config = ExperimentConfig(
        source=source,
        k_values=tuple(_parse_int_list(args.k_values)),
        repetitions=args.reps,
        rules=tuple(args.rules.split(",")),
        epsilon=args.epsilon,
        base_seed=args.seed,
    )
    result = run_experiment(config)
    runs_path, agg_path = write_outputs(result, args.out)
    print(f"wrote {runs_path} and {agg_path}")
    failures = [r for r in result.runs if r["error"]]
    for r in failures:
        print(f"failed run: {r}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_oracle(args) -> int:
    if args.mode == "optimum":
        election = _load_election(args)
        report = brute_force_optimum(election, args.cap)
        print(f"enumerated: {report.enumerated}")
        print(f"optimum score: {report.optimum_score}")
        for committee in report.optimum_committees:
            print(f"optimum committee: {sorted(committee)}")
        return 0
    if args.mode == "local-opt":
        election = _load_election(args)
        if args.committee is None:
            raise PavlsError("--mode local-opt needs --committee")
        eps = Epsilon.resolve(args.epsilon, election)
        committee = _parse_int_list(args.committee)
        flag, witness, gain = is_locally_optimal(election, committee, eps)
        print(f"locally optimal: {flag}")
        if witness is not None:
            print(f"witness: swap {witness.out_candidate} -> {witness.in_candidate}, "
                  f"gain {gain}")
        return 0 if flag else 1
    report = cons.min_k_gain_search(
        range(args.k_min, args.k_max + 1), levels=args.levels
    )
    for entry in report.entries:
        print(f"k={entry.k} levels={entry.levels} {entry.outcome}")
    print(f"first pass: {report.first_pass}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pavls",
        description="Exact local-search PAV: engine, instance families, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="sample a synthetic election")
    _add_model_args(p, required=True)
    p.add_argument("-n", type=int, required=True, help="voters")
    p.add_argument("-m", type=int, required=True, help="candidates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-k", type=int, help="committee size to record")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("construct", help="emit an adversarial instance")
    p.add_argument("--family", choices=("warmup", "f", "e", "et", "layered", "hardened"),
                   required=True)
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-j", type=int, default=1)
    p.add_argument("-t", type=int, default=1)
    p.add_argument("--levels", type=int, default=2)
    p.add_argument("--gamma", help="blocker sizing bound (fraction; default 8k^2(k+1))")
    p.add_argument("-o", "--output", help="election output file (default stdout)")
    p.add_argument("--labels-out", help="JSON sidecar with label maps")
    p.add_argument("--sequence-out", help="write the family's swap sequence")
    p.add_argument("--initial-out", help="write the family's start committee")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("certify", help="replay a swap sequence and certify it")
    _add_election_args(p)
    p.add_argument("--initial", required=True, help="start committee file")
    p.add_argument("--sequence", required=True, help="swap file, one 'out in' pair per line")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("run", help="run local search on an election")
    _add_election_args(p)
    p.add_argument("--initial", help="start committee file (default: max approval)")
    p.add_argument("--rule", choices=RULE_NAMES, default="lex-better")
    p.add_argument("--step-cap", type=int)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("experiment", help="run a seeded experiment grid")
    _add_election_args(p, required=False, with_k=False)
    _add_model_args(p, required=False)
    p.add_argument("-n", type=int, default=100)
    p.add_argument("-m", type=int, default=20)
    p.add_argument("--k-values", required=True, help="comma-separated committee sizes")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--rules", default=",".join(RULE_NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment, k=None)

    p = sub.add_parser("oracle", help="brute-force checks and searches")
    p.add_argument("--mode", choices=("optimum", "local-opt", "gain-search"), required=True)
    _add_election_args(p, required=False)
    p.add_argument("--committee", help="comma-separated candidate indices")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help="enumeration cap")
    p.add_argument("--k-min", type=int, default=4)
    p.add_argument("--k-max", type=int, default=64)
    p.add_argument("--levels", type=int, help="fixed level count (default: ceil(log2 k))")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except PavlsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
