"""Smoke run of ``benchmarks/bench_kernels.py``.

Its asserts check the scorer against ``graph_latency``, the Pareto front
of a log with repeats, the CSV export against ``csv.writer`` and the
function tables against their kernels, all bit for bit; its search lines
say whether the exact and the heuristic search found the same tiles.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernels.py"


def test_bench_kernels_checks_pass():
    proc = subprocess.run([sys.executable, str(SCRIPT), "--points", "2000", "--repeat", "1"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    same = [line.rsplit("same tiles: ", 1)[1] for line in proc.stdout.splitlines()
            if "same tiles: " in line]
    assert same == ["True", "True"], proc.stdout  # deit-base at batch 1 and 64
