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
from typing import Iterable, Iterator, Optional

from . import constructions as cons
from .core import Election, Epsilon, PavlsError, Swap, pav_score, validate_sequence
from .formats import FormatError, parse_native, parse_preflib_categorical, serialize_native
from .harness import ExperimentConfig, run_experiment, select_initial_committee
from .oracle import DEFAULT_ENUMERATION_CAP, brute_force_optimum, is_locally_optimal
from .samplers import MODELS, SamplerConfig, sample
from .search import RULES, run as run_search


def _parse_int_list(text: str, line: Optional[int] = None) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise FormatError(f"expected integers, got {text.strip()!r}", line=line) from None


def _read_lines(path: str) -> Iterator[tuple[int, str]]:
    """The file's lines with their 1-based numbers, read as they are
    consumed; a read error anywhere in the file is an input error."""
    try:
        with open(path) as lines:
            yield from enumerate(lines, 1)
    except (OSError, UnicodeDecodeError) as exc:
        raise PavlsError(f"cannot read {path}: {exc}") from None


def _load_election(args) -> Election:
    if args.election is None:
        raise PavlsError(f"{args.command} needs --election")
    text = "".join(line for _, line in _read_lines(args.election))
    if args.format == "preflib-cat":
        cats = set(_parse_int_list(_option(args, "--approve-categories", "1")))
        election = parse_preflib_categorical(text, cats)
    else:
        election = parse_native(text)
    if args.k is not None:
        election = election.with_committee_size(args.k)
    return election


def _read_committee(path: str) -> list[int]:
    return [c for lineno, line in _read_lines(path) for c in _parse_int_list(line, lineno)]


def _read_sequence(path: str) -> Iterator[Swap]:
    for lineno, line in _read_lines(path):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        pair = _parse_int_list(line, lineno)
        if len(pair) != 2:
            raise FormatError(f"swap line needs 'out in', got {line!r}", line=lineno)
        yield Swap(*pair)


def _write(path: Optional[Path | str], chunks: Iterable[str]) -> None:
    """Write the chunks to the file at path, or to standard output when
    there is no path; the one place the CLI writes its outputs."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    with open(path, "w") as out:
        out.writelines(chunks)


def _add_election_args(
    p: argparse.ArgumentParser, required: bool = True, with_k: bool = True
) -> None:
    """The election input options and the epsilon selector."""
    p.add_argument("--election", required=required, help="election file")
    p.add_argument("--format", choices=("native", "preflib-cat"))
    p.add_argument(
        "--approve-categories",
        help="comma-separated 1-based category indices counted as approval "
        "(preflib-cat only; default 1)",
    )
    if with_k:
        p.add_argument("-k", type=int, help="committee size (overrides the file's)")
    p.add_argument("--epsilon", help="zero-plus | threshold | a fraction like 28/3")


def _option(args, flag: str, default=None):
    """The value of an option that the parser defaults to None, or
    ``default`` if it is absent."""
    value = getattr(args, flag.lstrip("-").replace("-", "_"))
    return default if value is None else value


def _refuse_unread(args, flags: Iterable[str], what: str) -> None:
    """Refuse each of ``flags`` (options the parser defaults to None) that
    was given, since ``what`` never reads it."""
    for flag in flags:
        if _option(args, flag) is not None:
            raise PavlsError(f"{what} takes no {flag}")


def _epsilon(args) -> str:
    """The --epsilon selector; zero-plus when absent."""
    return _option(args, "--epsilon", "zero-plus")


# The model options and the value each takes when absent; each model
# reads those named after its dataclass fields.  The parser defaults
# them to None, so an option that nothing reads can be refused.
_MODEL_DEFAULTS = {"-p": 0.5, "--phi": 0.5, "-d": 2, "-r": 0.25}


def _add_model_args(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--model", choices=tuple(MODELS), required=required)
    p.add_argument("-p", type=float, help="approval probability")
    p.add_argument("--phi", type=float, help="resampling probability")
    p.add_argument("-d", type=int, help="Euclidean dimension")
    p.add_argument("-r", type=float, help="Euclidean radius")


def _sampler_config(args, seed: int) -> SamplerConfig:
    model = MODELS[args.model]
    params = {}
    for flag, default in _MODEL_DEFAULTS.items():
        if flag.lstrip("-") in model.__dataclass_fields__:
            params[flag.lstrip("-")] = _option(args, flag, default)
        else:
            _refuse_unread(args, (flag,), f"model {args.model!r}")
    # sample requires -n and -m; experiment defaults them.
    return SamplerConfig(model(**params), _option(args, "-n", 100), _option(args, "-m", 20), seed)


def _cmd_sample(args) -> int:
    election = sample(_sampler_config(args, args.seed))
    if args.k is not None:
        election = election.with_committee_size(args.k)
    _write(args.output, (serialize_native(election),))
    return 0


def _gamma(text: Optional[str]) -> Optional[Fraction]:
    # Only an absent --gamma is None: "" is no fraction, not the default.
    if text is None:
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise cons.ConstructionError(f"gamma must be a fraction, got {text!r}") from None


# The options each construct family never reads; each defaults to None.
_CONSTRUCT_UNREAD = {
    "warmup": ("-j", "-t", "--levels", "--gamma"),
    "f": ("-t", "--levels", "--gamma", "--sequence-out", "--initial-out"),
    "e": ("-t", "--levels", "--gamma", "--sequence-out", "--initial-out"),
    "et": ("--levels", "--gamma", "--sequence-out", "--initial-out"),
    "layered": ("-j", "-t", "--gamma"),
    "hardened": ("-j", "-t"),
}


def _construct(args) -> tuple[
    cons.LabeledElection, Optional[Iterable[Swap]], Optional[frozenset[int]]
]:
    fam = args.family
    j, t, levels = _option(args, "-j", 1), _option(args, "-t", 1), _option(args, "--levels", 2)
    if fam == "warmup":
        labeled = cons.warmup_election(args.k)
        return labeled, cons.warmup_sequence(args.k), cons.warmup_initial_committee(labeled)
    if fam == "f":
        return cons.f_election(j, args.k), None, None
    if fam == "e":
        return cons.e_election(j, args.k), None, None
    if fam == "et":
        return cons.e_t_election(t, j, args.k), None, None
    params = cons.LayeredParams(levels=levels, k=args.k)
    if fam == "layered":
        labeled = cons.layered_election(params)
        seq = cons.iter_x_sequence(params, params.levels, 1)
    else:  # hardened
        labeled = cons.hardened_election(cons.HardenedParams(params, _gamma(args.gamma)))
        seq = cons.iter_z_sequence(params, params.levels, 1)
    return labeled, seq, cons.layered_initial_committee(params)


def _cmd_construct(args) -> int:
    _refuse_unread(args, _CONSTRUCT_UNREAD[args.family], f"family {args.family!r}")
    labeled, seq, initial = _construct(args)
    _write(args.output, (serialize_native(labeled.election),))
    if args.labels_out is not None:
        sidecar = {
            "candidate_labels": labeled.candidate_labels,
            "voter_groups": {g: sorted(v) for g, v in labeled.voter_groups.items()},
            "counterpart": labeled.counterpart,
        }
        _write(args.labels_out, (json.dumps(sidecar, indent=2), "\n"))
    if args.sequence_out is not None:
        _write(args.sequence_out, (f"{s.out_candidate} {s.in_candidate}\n" for s in seq))
    if args.initial_out is not None:
        _write(args.initial_out, (" ".join(map(str, sorted(initial))), "\n"))
    return 0


def _cmd_certify(args) -> int:
    election = _load_election(args)
    initial = _read_committee(args.initial)
    eps = Epsilon.resolve(_epsilon(args), election)
    seq = _read_sequence(args.sequence)
    cert = validate_sequence(election, initial, seq, eps)
    # The replay stops at an invalid step; a malformed line after it is
    # still an input error.
    for _ in seq:
        pass
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
        select_initial_committee(election) if args.initial is None
        else _read_committee(args.initial)
    )
    eps = Epsilon.resolve(_epsilon(args), election)
    trace = run_search(election, initial, eps, RULES[args.rule], step_cap=args.step_cap)
    print(f"initial committee: {sorted(trace.initial_committee)}")
    print(f"swaps: {trace.swaps}")
    print(f"comparisons: {trace.comparisons}")
    print(f"terminated: {trace.terminated}")
    print(f"final committee: {sorted(trace.final_committee)}")
    print(f"final score: {pav_score(election, trace.final_committee)}")
    return 0 if trace.terminated else 1


def _cmd_experiment(args) -> int:
    if args.election is not None and args.model is not None:
        raise PavlsError("experiment takes --election or --model, not both")
    if args.election is not None:
        _refuse_unread(args, (*_MODEL_DEFAULTS, "-n", "-m"), "experiment --election")
        source = _load_election(args)
    elif args.model is not None:
        if args.format is not None:  # the model source reads no file
            raise PavlsError(f"experiment --model takes no --format {args.format}")
        source = _sampler_config(args, 0)
    else:
        raise PavlsError("experiment needs --election or --model")
    config = ExperimentConfig(
        source=source,
        k_values=tuple(_parse_int_list(args.k_values)),
        repetitions=args.reps,
        rules=tuple(args.rules.split(",")),
        epsilon=_epsilon(args),
        base_seed=args.seed,
    )
    result = run_experiment(config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runs_path, agg_path = out / "runs.csv", out / "aggregate.csv"
    _write(runs_path, (result.runs_csv(),))
    _write(agg_path, (result.aggregate_csv(),))
    print(f"wrote {runs_path} and {agg_path}")
    failures = [r for r in result.runs if r["error"]]
    for r in failures:
        print(f"failed run: {r}", file=sys.stderr)
    return 1 if failures else 0


# The options each oracle mode never reads; each defaults to None.
_ORACLE_UNREAD = {
    "optimum": ("--committee", "--epsilon", "--k-min", "--k-max", "--levels"),
    "local-opt": ("--cap", "--k-min", "--k-max", "--levels"),
    "gain-search": ("--election", "--approve-categories", "--format", "-k", "--committee",
                    "--epsilon", "--cap"),
}


def _cmd_oracle(args) -> int:
    _refuse_unread(args, _ORACLE_UNREAD[args.mode], f"--mode {args.mode}")
    if args.mode == "optimum":
        election = _load_election(args)
        report = brute_force_optimum(election, _option(args, "--cap", DEFAULT_ENUMERATION_CAP))
        print(f"enumerated: {report.enumerated}")
        print(f"optimum score: {report.optimum_score}")
        for committee in report.optimum_committees:
            print(f"optimum committee: {sorted(committee)}")
        return 0
    if args.mode == "local-opt":
        election = _load_election(args)
        if args.committee is None:
            raise PavlsError("--mode local-opt needs --committee")
        eps = Epsilon.resolve(_epsilon(args), election)
        committee = _parse_int_list(args.committee)
        flag, witness, gain = is_locally_optimal(election, committee, eps)
        print(f"locally optimal: {flag}")
        if witness is not None:
            print(f"witness: swap {witness.out_candidate} -> {witness.in_candidate}, "
                  f"gain {gain}")
        return 0 if flag else 1
    k_min, k_max = _option(args, "--k-min", 4), _option(args, "--k-max", 64)
    report = cons.min_k_gain_search(range(k_min, k_max + 1), levels=args.levels)
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
    p.add_argument("-j", type=int)
    p.add_argument("-t", type=int)
    p.add_argument("--levels", type=int)
    p.add_argument("--gamma", help="hardened blocker sizing bound (fraction; default 8k^2(k+1))")
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
    p.add_argument("--rule", choices=tuple(RULES), default="lex-better")
    p.add_argument("--step-cap", type=int)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("experiment", help="run a seeded experiment grid")
    _add_election_args(p, required=False, with_k=False)
    _add_model_args(p, required=False)
    p.add_argument("-n", type=int)
    p.add_argument("-m", type=int)
    p.add_argument("--k-values", required=True, help="comma-separated committee sizes")
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--rules", default=",".join(RULES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_experiment, k=None)

    p = sub.add_parser("oracle", help="brute-force checks and searches")
    p.add_argument("--mode", choices=("optimum", "local-opt", "gain-search"), required=True)
    _add_election_args(p, required=False)
    p.add_argument("--committee", help="comma-separated candidate indices")
    p.add_argument("--cap", type=int, help="enumeration cap")
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--levels", type=int, help="fixed level count (default: ceil(log2 k))")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    # An output file or directory that cannot be written is an input
    # error, like a file that cannot be read: exit 2, not a traceback.
    try:
        # Only the PrefLib parser reads --approve-categories.
        if getattr(args, "approve_categories", None) is not None and args.format != "preflib-cat":
            raise PavlsError("--approve-categories needs --format preflib-cat")
        return args.func(args)
    except (PavlsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
