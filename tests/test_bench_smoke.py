"""Quick runs of the benchmark script, so a refactor that renames what the
benchmark imports or traces fails here rather than in a benchmark run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench" / "run.py"


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH), *args],
                          capture_output=True, text=True, timeout=120)


def test_bench_smoke():
    proc = _bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout


@pytest.mark.parametrize("workload", ["layered_certify_2_64", "hardened_lex_2_32",
                                      "ic_grid_n100_m20"])
def test_bench_trace_patches_every_layer(workload):
    proc = _bench("--workload", workload, "--size", "tiny", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    record_line, result_line = proc.stdout.strip().splitlines()[-2:]
    record = json.loads(record_line)["record"]
    metrics = json.loads(result_line)["metrics"]
    assert record["trace_missing"] == []
    assert record["trace_counts_match"]
    if workload != "layered_certify_2_64":  # the replay makes no search scan
        assert metrics["search.scan.calls"]["value"] > 0
