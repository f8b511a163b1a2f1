import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavls import (
    BallotClass,
    Election,
    Epsilon,
    ExperimentConfig,
    ImpartialCulture,
    SamplerConfig,
    parse_native,
    pav_score,
    run_experiment,
    validate_sequence,
)
from pavls.cli import main
from pavls.formats import serialize_native


def test_sample_writes_native(tmp_path, capsys):
    out = tmp_path / "e.pavls"
    rc = main(["sample", "--model", "ic", "-n", "10", "-m", "5",
               "--seed", "3", "-k", "2", "-o", str(out)])
    assert rc == 0
    e = parse_native(out.read_text())
    assert e.n == 10 and e.m == 5 and e.committee_size == 2
    # stdout path and determinism
    rc = main(["sample", "--model", "ic", "-n", "10", "-m", "5", "--seed", "3", "-k", "2"])
    assert rc == 0
    assert capsys.readouterr().out == serialize_native(e)


def test_construct_certify_round_trip(tmp_path):
    e_path, seq_path, init_path, labels = (
        tmp_path / "e.pavls", tmp_path / "seq.txt",
        tmp_path / "w0.txt", tmp_path / "labels.json",
    )
    rc = main(["construct", "--family", "warmup", "-k", "8",
               "-o", str(e_path), "--labels-out", str(labels),
               "--sequence-out", str(seq_path), "--initial-out", str(init_path)])
    assert rc == 0
    sidecar = json.loads(labels.read_text())
    assert "c[1,1]" in sidecar["candidate_labels"]
    assert "U" in sidecar["voter_groups"]
    rc = main(["certify", "--election", str(e_path), "--initial", str(init_path),
               "--sequence", str(seq_path), "--epsilon", "threshold"])
    assert rc == 0


def test_certify_rejects_bad_sequence(tmp_path, capsys):
    e_path, seq_path, init_path = (
        tmp_path / "e.pavls", tmp_path / "seq.txt", tmp_path / "w0.txt")
    main(["construct", "--family", "warmup", "-k", "8",
          "-o", str(e_path), "--sequence-out", str(seq_path),
          "--initial-out", str(init_path)])
    # reversed sequence loses score at its first step
    lines = seq_path.read_text().splitlines()
    seq_path.write_text("\n".join(f"{b} {a}" for a, b in
                                  (ln.split() for ln in reversed(lines))) + "\n")
    rc = main(["certify", "--election", str(e_path), "--initial", str(init_path),
               "--sequence", str(seq_path), "--epsilon", "threshold"])
    assert rc == 1
    assert "certified good: False" in capsys.readouterr().out


def test_run_subcommand(tmp_path, capsys, fig1b):
    e_path = tmp_path / "fig1b.pavls"
    e_path.write_text(serialize_native(fig1b))
    rc = main(["run", "--election", str(e_path), "--rule", "lex-better"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "terminated: True" in out
    # custom fraction epsilon: 10-threshold run performs no swaps
    rc = main(["run", "--election", str(e_path), "--epsilon", "10"])
    assert rc == 0
    assert "swaps: 0" in capsys.readouterr().out


def test_experiment_subcommand(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    rc = main(["experiment", "--model", "ic", "-n", "20", "-m", "6",
               "--k-values", "2,3", "--reps", "3", "--seed", "11",
               "--out", str(out_dir)])
    assert rc == 0
    runs_path, agg_path = out_dir / "runs.csv", out_dir / "aggregate.csv"
    assert capsys.readouterr().out == f"wrote {runs_path} and {agg_path}\n"
    runs, agg = runs_path.read_text(), agg_path.read_text()
    assert runs.splitlines()[0].startswith("model,k,rule")
    assert len(runs.splitlines()) == 1 + 2 * 3 * 2
    assert len(agg.splitlines()) == 1 + 4
    # The files hold exactly the CSVs of the same config run in-process.
    result = run_experiment(ExperimentConfig(
        SamplerConfig(ImpartialCulture(0.5), 20, 6, 0), (2, 3), repetitions=3, base_seed=11))
    assert runs == result.runs_csv()
    assert agg == result.aggregate_csv()


def test_experiment_failed_cell_exit_code(tmp_path, capsys):
    # k = 5 cannot be seated among 3 candidates: both rules' rows carry
    # the error, each is reported on stderr, and the exit code is 1.
    out_dir = tmp_path / "exp"
    with pytest.warns(UserWarning, match="no successful runs"):
        rc = main(["experiment", "--model", "ic", "-n", "5", "-m", "3",
                   "--k-values", "2,5", "--out", str(out_dir)])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert sum(line.startswith("failed run: ") for line in err) == 2
    with open(out_dir / "runs.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    assert [row["error"] for row in rows].count("committee size 5 not an int in [1, 3]") == 2


def test_oracle_subcommands(tmp_path, capsys, fig1b):
    e_path = tmp_path / "fig1b.pavls"
    e_path.write_text(serialize_native(fig1b))
    rc = main(["oracle", "--mode", "optimum", "--election", str(e_path)])
    assert rc == 0
    assert "optimum score: 112" in capsys.readouterr().out
    rc = main(["oracle", "--mode", "local-opt", "--election", str(e_path),
               "--committee", "0,1,2", "--epsilon", "10"])
    assert rc == 0
    rc = main(["oracle", "--mode", "local-opt", "--election", str(e_path),
               "--committee", "0,1,2"])
    assert rc == 1
    assert "witness" in capsys.readouterr().out
    rc = main(["oracle", "--mode", "gain-search", "--k-min", "18",
               "--k-max", "24", "--levels", "2"])
    assert rc == 0
    assert "first pass: 21" in capsys.readouterr().out


def test_preflib_loading(tmp_path, capsys):
    cat = tmp_path / "toy.cat"
    cat.write_text(
        "# NUMBER ALTERNATIVES: 4\n"
        "# NUMBER CATEGORIES: 2\n"
        "# CATEGORY NAME 1: yes\n"
        "# CATEGORY NAME 2: no\n"
        "5: {1,2},{3,4}\n"
        "3: {3},{1,2,4}\n"
    )
    rc = main(["oracle", "--mode", "optimum", "--election", str(cat),
               "--format", "preflib-cat", "--approve-categories", "1", "-k", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "optimum score: 5" in out


def test_preflib_category_zero_exit_code(tmp_path, capsys):
    # Without category names, index 0 read the last group and ran on
    # the wrong election.
    cat = tmp_path / "toy.cat"
    cat.write_text("1: {1,2},{3}\n2: {3},{1}\n")
    for cats in ("0", "1,-1"):
        rc = main(["run", "--election", str(cat), "--format", "preflib-cat",
                   "--approve-categories", cats, "-k", "1"])
        assert rc == 2
        assert "1-based" in capsys.readouterr().err


def test_bad_epsilon_exit_code(tmp_path, capsys, fig1b):
    e_path = tmp_path / "fig1b.pavls"
    e_path.write_text(serialize_native(fig1b))
    out_dir = tmp_path / "exp"
    for argv in (
        ["run", "--election", str(e_path), "--epsilon", "abc"],
        ["run", "--election", str(e_path), "--epsilon", "-1"],
        ["experiment", "--model", "ic", "--k-values", "2", "--epsilon", "abc",
         "--out", str(out_dir)],
    ):
        assert main(argv) == 2, argv
        assert "error: epsilon must be" in capsys.readouterr().err
    assert not out_dir.exists()


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pavls"
    bad.write_text("nonsense\n")
    rc = main(["run", "--election", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _assert_input_error(capsys, argv, message):
    assert main(argv) == 2, argv
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    assert "Traceback" not in err


def test_unwritable_output_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing"
    _assert_input_error(
        capsys, ["sample", "--model", "ic", "-n", "5", "-m", "3", "-o", str(missing / "e.pavls")],
        str(missing))
    e_path = tmp_path / "e.pavls"
    for flag in ("-o", "--labels-out", "--sequence-out", "--initial-out"):
        argv = ["construct", "--family", "warmup", "-k", "8", "-o", str(e_path)]
        _assert_input_error(capsys, argv + [flag, str(missing / "out.txt")], str(missing))
    assert not missing.exists()
    # --out names an existing file, not a directory.
    _assert_input_error(
        capsys, ["experiment", "--model", "ic", "-n", "5", "-m", "3", "--k-values", "2",
                 "--out", str(e_path)], str(e_path))


def test_missing_election_file_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing.pavls"
    _assert_input_error(capsys, ["run", "--election", str(missing)], "cannot read")


def test_malformed_sequence_exit_code(tmp_path, capsys):
    e_path, seq_path, init_path = (
        tmp_path / "e.pavls", tmp_path / "seq.txt", tmp_path / "w0.txt")
    main(["construct", "--family", "warmup", "-k", "8", "-o", str(e_path),
          "--initial-out", str(init_path)])
    seq_path.write_text("# out in\n0 x\n")
    _assert_input_error(
        capsys, ["certify", "--election", str(e_path), "--initial", str(init_path),
                 "--sequence", str(seq_path)], "line 2: ")
    seq_path.write_text("0 1 2\n")
    _assert_input_error(
        capsys, ["certify", "--election", str(e_path), "--initial", str(init_path),
                 "--sequence", str(seq_path)], "line 1: swap line needs")
    # The replay stops at the invalid first swap; the malformed line after
    # it is still found, by its number.
    seq_path.write_text("0 0\n\n0 x\n")
    _assert_input_error(
        capsys, ["certify", "--election", str(e_path), "--initial", str(init_path),
                 "--sequence", str(seq_path)], "line 3: ")
    # Unreadable sequence files are input errors too.
    seq_path.write_bytes(b"0 1\n\xff\n")
    for path in (seq_path, tmp_path / "missing.txt"):
        _assert_input_error(
            capsys, ["certify", "--election", str(e_path), "--initial", str(init_path),
                     "--sequence", str(path)], "cannot read")


def test_certify_reads_committee_before_sequence(tmp_path, capsys):
    e_path, seq_path, init_path = (
        tmp_path / "e.pavls", tmp_path / "seq.txt", tmp_path / "w0.txt")
    main(["construct", "--family", "warmup", "-k", "8", "-o", str(e_path),
          "--sequence-out", str(seq_path)])
    # The sequence's later lines are malformed: reading it first would
    # report them instead of the empty committee.
    with seq_path.open("a") as f:
        f.write("0 x\n")
    init_path.write_text("")
    _assert_input_error(
        capsys, ["certify", "--election", str(e_path), "--initial", str(init_path),
                 "--sequence", str(seq_path)], "committee has 0 members")


def test_malformed_initial_exit_code(tmp_path, capsys, fig1b):
    e_path, init_path = tmp_path / "fig1b.pavls", tmp_path / "w0.txt"
    e_path.write_text(serialize_native(fig1b))
    init_path.write_text("0 1 x\n")
    _assert_input_error(
        capsys, ["run", "--election", str(e_path), "--initial", str(init_path)],
        "line 1: expected integers")


def test_negative_step_cap_exit_code(tmp_path, capsys, fig1b):
    e_path = tmp_path / "fig1b.pavls"
    e_path.write_text(serialize_native(fig1b))
    _assert_input_error(
        capsys, ["run", "--election", str(e_path), "--step-cap", "-1"], "step cap")


def test_committee_size_out_of_range_exit_code(tmp_path, capsys, fig1b):
    e_path = tmp_path / "fig1b.pavls"
    e_path.write_text(serialize_native(fig1b))
    for k in ("0", "99"):
        _assert_input_error(
            capsys, ["run", "--election", str(e_path), "-k", k], "committee size")
    _assert_input_error(
        capsys, ["sample", "--model", "ic", "-n", "5", "-m", "3", "-k", "0"], "committee size")


def test_too_many_seeds_exit_code(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    _assert_input_error(
        capsys, ["experiment", "--model", "ic", "--k-values", "1", "--reps", "1000004",
                 "--out", str(out_dir)], "collide")
    assert not out_dir.exists()


def test_oracle_missing_inputs_exit_code(tmp_path, capsys, fig1b):
    e_path = tmp_path / "fig1b.pavls"
    e_path.write_text(serialize_native(fig1b))
    _assert_input_error(capsys, ["oracle", "--mode", "optimum"], "needs --election")
    _assert_input_error(
        capsys, ["oracle", "--mode", "local-opt", "--committee", "0,1,2"], "needs --election")
    _assert_input_error(
        capsys, ["oracle", "--mode", "local-opt", "--election", str(e_path)],
        "needs --committee")


def test_experiment_without_source_exit_code(tmp_path, capsys):
    out_dir = tmp_path / "exp"
    _assert_input_error(
        capsys, ["experiment", "--k-values", "2", "--out", str(out_dir)],
        "needs --election or --model")
    assert not out_dir.exists()


def test_experiment_input_errors_exit_code(tmp_path, capsys, fig1b):
    # --model was ignored next to --election, and repetitions on a fixed
    # election wrote identical rows; both exited 0.
    e_path, out_dir = tmp_path / "fig1b.pavls", tmp_path / "exp"
    e_path.write_text(serialize_native(fig1b))
    base = ["experiment", "--election", str(e_path), "--k-values", "2,3", "--out", str(out_dir)]
    _assert_input_error(capsys, base + ["--model", "ic"], "not both")
    _assert_input_error(capsys, base + ["--reps", "3"], "fixed election")
    assert not out_dir.exists()


def test_repeated_committee_member_exit_code(small_election_path, capsys):
    # The repeat vanished: {0, 1} was checked and a witness printed (exit 1).
    _assert_input_error(
        capsys, ["oracle", "--mode", "local-opt", "--election", small_election_path,
                 "--committee", "0,0,1", "-k", "2"], "lists member 0 twice")


def test_preflib_unmentioned_alternatives_exit_code(tmp_path, capsys):
    # Parsed into a 1,000,000-candidate election.
    cat = tmp_path / "huge.cat"
    cat.write_text("# NUMBER ALTERNATIVES: 1000000\n1: {1}\n")
    _assert_input_error(
        capsys, ["run", "--election", str(cat), "--format", "preflib-cat", "-k", "1"],
        "alternative 2 never mentioned")


def test_construct_input_errors_exit_code(tmp_path, capsys):
    # An empty --gamma built the default-gamma election and exited 0.
    for gamma in ("abc", "1/0", "", " "):
        _assert_input_error(
            capsys, ["construct", "--family", "hardened", "-k", "21", "--gamma", gamma],
            "gamma must be a fraction")
    _assert_input_error(capsys, ["construct", "--family", "f", "-k", "5", "-j", "0"],
                        "1 <= j < k")
    e_path, seq_path = tmp_path / "e.pavls", tmp_path / "seq.txt"
    for family in ("f", "e", "et"):
        for flag, message in (("--sequence-out", f"family {family!r} takes no --sequence-out"),
                              ("--initial-out", f"family {family!r} takes no --initial-out")):
            _assert_input_error(
                capsys, ["construct", "--family", family, "-k", "5", "-o", str(e_path),
                         flag, str(seq_path)], message)
            assert not e_path.exists() and not seq_path.exists()
    # The refusal comes before the family is built, which -j 0 would fail.
    _assert_input_error(
        capsys, ["construct", "--family", "f", "-k", "5", "-j", "0", "--initial-out",
                 str(seq_path)], "family 'f' takes no --initial-out")
    # --gamma sizes only the hardened blockers; elsewhere it was ignored.
    for family in ("warmup", "f", "e", "et", "layered"):
        _assert_input_error(
            capsys, ["construct", "--family", family, "-k", "8", "--gamma", "1/2",
                     "-o", str(e_path)], "takes no --gamma")
        assert not e_path.exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--election", "MISSING", "--approve-categories", "2"],
     "--approve-categories needs --format preflib-cat"),
    (["oracle", "--mode", "optimum", "--election", "MISSING", "--committee", "0,1"],
     "--mode optimum takes no --committee"),
    (["oracle", "--mode", "local-opt", "--election", "MISSING", "--committee", "0,1",
      "--levels", "2"], "--mode local-opt takes no --levels"),
    (["oracle", "--mode", "gain-search", "--election", "MISSING"],
     "--mode gain-search takes no --election"),
    (["oracle", "--mode", "gain-search", "--format", "preflib-cat", "--approve-categories", "1"],
     "--mode gain-search takes no --approve-categories"),
    (["oracle", "--mode", "gain-search", "-k", "2"], "--mode gain-search takes no -k"),
    (["experiment", "--model", "ic", "-n", "10", "-m", "4", "--k-values", "2",
      "--format", "preflib-cat", "--approve-categories", "2", "--out", "OUT"],
     "experiment --model takes no --format preflib-cat"),
    (["experiment", "--model", "ic", "-n", "10", "-m", "4", "--k-values", "2",
      "--format", "native", "--out", "OUT"],
     "experiment --model takes no --format native"),
    *((["experiment", "--election", "MISSING", flag, value, "--k-values", "2", "--out", "OUT"],
       f"experiment --election takes no {flag}")
      for flag, value in (("-p", "0.9"), ("--phi", "0.9"), ("-d", "1"), ("-r", "0.1"),
                          ("-n", "10"), ("-m", "4"))),
    (["sample", "--model", "ic", "-n", "5", "-m", "4", "--phi", "0.9"],
     "model 'ic' takes no --phi"),
    (["sample", "--model", "euclidean", "-n", "5", "-m", "4", "-p", "0.9"],
     "model 'euclidean' takes no -p"),
    (["experiment", "--model", "resampling", "-d", "1", "--k-values", "2", "--out", "OUT"],
     "model 'resampling' takes no -d"),
    *((["construct", "--family", family, "-k", "8", flag, "3", "-o", "OUT"],
       f"family {family!r} takes no {flag}")
      for family, flag in (("warmup", "-j"), ("warmup", "-t"), ("warmup", "--levels"),
                           ("f", "-t"), ("e", "--levels"), ("et", "--levels"),
                           ("layered", "-j"), ("hardened", "-t"))),
    *((["oracle", "--mode", mode, *extra, flag, value], f"--mode {mode} takes no {flag}")
      for mode, extra, flag, value in (
          ("optimum", ["--election", "MISSING"], "--epsilon", "1/2"),
          ("optimum", ["--election", "MISSING"], "--k-min", "4"),
          ("optimum", ["--election", "MISSING"], "--k-max", "8"),
          ("local-opt", ["--election", "MISSING", "--committee", "0,1"], "--cap", "9"),
          ("local-opt", ["--election", "MISSING", "--committee", "0,1"], "--k-min", "4"),
          ("local-opt", ["--election", "MISSING", "--committee", "0,1"], "--k-max", "8"),
          ("gain-search", [], "--epsilon", "zero-plus"),
          ("gain-search", [], "--cap", "9"),
          ("gain-search", [], "--format", "native"))),
], ids=["approve-categories", "oracle-committee", "oracle-levels", "gain-search-election",
        "gain-search-approve-categories", "gain-search-k", "model-preflib-cat", "model-native",
        "election-p", "election-phi", "election-d", "election-r", "election-n", "election-m",
        "ic-phi", "euclidean-p", "resampling-d",
        "warmup-j", "warmup-t", "warmup-levels", "f-t", "e-levels", "et-levels", "layered-j",
        "hardened-t", "optimum-epsilon", "optimum-k-min", "optimum-k-max", "local-opt-cap",
        "local-opt-k-min", "local-opt-k-max", "gain-search-epsilon", "gain-search-cap",
        "gain-search-format"])
def test_unread_options_exit_code(tmp_path, capsys, argv, message):
    # Each option was ignored and the command exited 0.  The election
    # file does not exist: the option is refused before any file is read
    # (and before the output directory or file is made).
    paths = {"MISSING": str(tmp_path / "missing.pavls"), "OUT": str(tmp_path / "out")}
    _assert_input_error(capsys, [paths.get(a, a) for a in argv], message)
    assert not (tmp_path / "out").exists()


_NO_FILE = "No such file or directory: ''"


@pytest.mark.parametrize("argv, message", [
    (["run", "--election", "TOY", "--format", "preflib-cat", "--approve-categories", "",
      "-k", "1"], "need at least one approved category"),
    (["run", "--election", "FIG1B", "--initial", ""], "cannot read"),
    (["sample", "--model", "ic", "-n", "5", "-m", "4", "-o", ""], _NO_FILE),
    *((["construct", "--family", "warmup", "-k", "8", "-o", "E", flag, ""], _NO_FILE)
      for flag in ("--sequence-out", "--initial-out", "--labels-out")),
    (["experiment", "--election", "", "--model", "ic", "--k-values", "2", "--out", "OUT"],
     "not both"),
    (["sample", "--model", "ic", "-n", "5", "-m", "4", "--seed", "-1"], "seed must be >= 0"),
], ids=["approve-categories", "initial", "sample-o", "sequence-out", "initial-out",
        "labels-out", "experiment-election", "negative-seed"])
def test_empty_values_exit_code(tmp_path, capsys, fig1b, argv, message):
    # An empty value was read as an absent option: category 1, the
    # max-approval start, stdout, no sidecar or the model source, and
    # seed -1 drew seed 1's election; each command exited 0.
    toy, e_path = tmp_path / "toy.cat", tmp_path / "fig1b.pavls"
    toy.write_text("# NUMBER ALTERNATIVES: 2\n1: {1},{2}\n2: {2},{1}\n")
    e_path.write_text(serialize_native(fig1b))
    paths = {"TOY": str(toy), "FIG1B": str(e_path), "E": str(tmp_path / "e.pavls"),
             "OUT": str(tmp_path / "out")}
    _assert_input_error(capsys, [paths.get(a, a) for a in argv], message)
    assert not (tmp_path / "out").exists()


def test_absent_options_take_their_old_values(tmp_path, capsys):
    # construct's -j, -t and --levels, and oracle's --epsilon, --cap,
    # --k-min and --k-max default to None in the parser; each absent one
    # is read as the value the parser used to supply.
    for family, given in (("f", ["-j", "1"]), ("e", ["-j", "1"]), ("et", ["-t", "1", "-j", "1"]),
                          ("layered", ["--levels", "2"])):
        outputs = []
        for extra in ([], given):
            out = tmp_path / f"{family}{len(extra)}.pavls"
            assert main(["construct", "--family", family, "-k", "8", "-o", str(out), *extra]) == 0
            outputs.append(out.read_text())
        assert outputs[0] == outputs[1]
    path = tmp_path / "s.pavls"
    assert main(["sample", "--model", "ic", "-n", "30", "-m", "6", "-k", "2", "-o", str(path)]) == 0
    capsys.readouterr()
    for argv, given in (
        (["oracle", "--mode", "local-opt", "--election", str(path), "--committee", "0,1"],
         ["--epsilon", "zero-plus"]),
        (["oracle", "--mode", "optimum", "--election", str(path)], ["--cap", "1000000"]),
        (["oracle", "--mode", "gain-search", "--levels", "2"], ["--k-min", "4", "--k-max", "64"]),
        (["run", "--election", str(path)], ["--epsilon", "zero-plus", "--format", "native"]),
    ):
        results = []
        for extra in ([], given):
            results.append((main(argv + extra), capsys.readouterr().out))
        assert results[0] == results[1]
    assert main(["oracle", "--mode", "optimum", "--election", str(path), "--cap", "14"]) == 2
    assert "cap is 14" in capsys.readouterr().err


def _exit_code(argv):
    """main's exit code, with argparse's usage errors counted as exit 2;
    any other exception propagates and fails the test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code


_EPSILONS = ("zero-plus", "threshold", "1", "5/2", "1e-3", "0", "-1", "1/0", "abc", "nan", "")


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(0, 6), m=st.integers(0, 6), k=st.none() | st.integers(0, 7),
    p=st.floats(0, 1) | st.floats(-1, 2) | st.just(float("nan")),
    run_k=st.none() | st.integers(0, 7), step_cap=st.none() | st.integers(-1, 4),
    epsilon=st.sampled_from(_EPSILONS), rule=st.sampled_from(("lex-better", "best")),
)
def test_sample_and_run_exit_codes(n, m, k, p, run_k, step_cap, epsilon, rule):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "e.pavls")
        argv = ["sample", "--model", "ic", f"-n={n}", f"-m={m}", f"-p={p}", "-o", path]
        assert _exit_code(argv + ([f"-k={k}"] if k is not None else [])) in (0, 2)
        if not os.path.exists(path):  # the drawn sample was rejected; run a valid one
            assert _exit_code(["sample", "--model", "ic", "-n=4", "-m=5", "-o", path]) == 0
        argv = ["run", "--election", path, "--rule", rule, f"--epsilon={epsilon}"]
        if run_k is not None:
            argv.append(f"-k={run_k}")
        if step_cap is not None:
            argv.append(f"--step-cap={step_cap}")
        assert _exit_code(argv) in (0, 1, 2)


def test_python_dash_m_entry_point():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-m", "pavls", "sample", "--model", "ic", "-n", "5", "-m", "3"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("pavls 1 3 0\n")


@pytest.fixture(scope="module")
def small_election_path(tmp_path_factory):
    classes = (BallotClass(frozenset({0, 1}), 3), BallotClass(frozenset({2}), 2),
               BallotClass(frozenset({3, 4}), 1))
    path = tmp_path_factory.mktemp("oracle") / "small.pavls"
    path.write_text(serialize_native(Election(("a", "b", "c", "d", "e"), classes, 2)))
    return str(path)


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from(("optimum", "local-opt", "gain-search")),
    with_election=st.booleans(), k=st.none() | st.integers(0, 5),
    committee=st.none() | st.sampled_from(("0,1", "0,2", "0", "0,0", "9,1", "x", "")),
    epsilon=st.sampled_from(_EPSILONS), cap=st.none() | st.integers(-1, 30),
    k_min=st.integers(-2, 8), k_span=st.integers(-1, 4), levels=st.none() | st.integers(-1, 3),
)
def test_oracle_exit_codes(small_election_path, mode, with_election, k, committee, epsilon, cap,
                           k_min, k_span, levels):
    argv = ["oracle", "--mode", mode, f"--epsilon={epsilon}",
            f"--k-min={k_min}", f"--k-max={k_min + k_span}"]
    if with_election:
        argv += ["--election", small_election_path]
    for flag, value in (("-k", k), ("--committee", committee), ("--cap", cap),
                        ("--levels", levels)):
        if value is not None:
            argv.append(f"{flag}={value}")
    assert _exit_code(argv) in (0, 1, 2)


@settings(max_examples=80, deadline=None)
@given(
    family=st.sampled_from(("warmup", "f", "e", "et", "layered", "hardened")),
    k=st.integers(-1, 9) | st.just(21), j=st.integers(-1, 4), t=st.integers(-1, 3),
    levels=st.integers(-1, 3),
    gamma=st.none() | st.sampled_from(("abc", "1/0", "0", "-3", "5/2", "")),
    sequence_out=st.booleans(), initial_out=st.booleans(),
)
def test_construct_exit_codes(family, k, j, t, levels, gamma, sequence_out, initial_out):
    with tempfile.TemporaryDirectory() as tmp:
        argv = ["construct", f"--family={family}", f"-k={k}", f"-j={j}", f"-t={t}",
                f"--levels={levels}", "-o", os.path.join(tmp, "e.pavls")]
        if gamma is not None:
            argv.append(f"--gamma={gamma}")
        if sequence_out:
            argv += ["--sequence-out", os.path.join(tmp, "seq.txt")]
        if initial_out:
            argv += ["--initial-out", os.path.join(tmp, "w0.txt")]
        assert _exit_code(argv) in (0, 1, 2)
