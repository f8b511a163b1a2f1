import contextlib
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

from pavls import BallotClass, Election, Epsilon, parse_native, pav_score, validate_sequence
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
    runs = (out_dir / "runs.csv").read_text()
    agg = (out_dir / "aggregate.csv").read_text()
    assert runs.splitlines()[0].startswith("model,k,rule")
    assert len(runs.splitlines()) == 1 + 2 * 3 * 2
    assert len(agg.splitlines()) == 1 + 4


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


def test_construct_input_errors_exit_code(tmp_path, capsys):
    for gamma in ("abc", "1/0"):
        _assert_input_error(
            capsys, ["construct", "--family", "hardened", "-k", "21", "--gamma", gamma],
            "gamma must be a fraction")
    _assert_input_error(capsys, ["construct", "--family", "f", "-k", "5", "-j", "0"],
                        "1 <= j < k")
    e_path, seq_path = tmp_path / "e.pavls", tmp_path / "seq.txt"
    for family in ("f", "e", "et"):
        for flag, message in (("--sequence-out", "no associated sequence"),
                              ("--initial-out", "no associated committee")):
            _assert_input_error(
                capsys, ["construct", "--family", family, "-k", "5", "-o", str(e_path),
                         flag, str(seq_path)], message)
            assert not e_path.exists() and not seq_path.exists()


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
    levels=st.integers(-1, 3), gamma=st.none() | st.sampled_from(("abc", "1/0", "0", "-3", "5/2")),
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
