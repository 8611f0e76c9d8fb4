"""The committed BENCH_ladder.json agrees with the code in this tree.

Every row small enough to rerun in about a second (GHZ up to 128 qubits, BV
and DJ up to 32) is simulated again, and every field but ``wall_seconds``
must equal the committed one.  ``scripts/bench_ladder.py`` rewrites the file.
"""

import json
from pathlib import Path

import pytest

from tidd.bench import metrics_row

from helpers import benchmark_run

LADDER = json.loads((Path(__file__).resolve().parents[1] / "BENCH_ladder.json").read_text())
QUICK = [row for row in LADDER["rows"] if row["qubits"] <= (128 if row["algo"] == "ghz" else 32)]


def test_quick_rows_are_the_small_rungs():
    assert [(row["algo"], row["qubits"], row["seed"]) for row in QUICK] == [
        ("ghz", 64, 0), ("ghz", 128, 0),
        ("bv", 8, 0), ("bv", 16, 0), ("bv", 32, 0),
        ("dj", 8, 0), ("dj", 16, 0), ("dj", 32, 0),
    ]


@pytest.mark.parametrize("row", QUICK, ids=lambda row: f"{row['algo']}-{row['qubits']}")
def test_ladder_row_matches_a_rerun(row):
    algo, qubits, seed = row["algo"], row["qubits"], row["seed"]
    _, metrics = benchmark_run(algo, qubits, seed)
    rerun = metrics_row(algo, qubits, seed, metrics)
    del rerun["wall_seconds"]
    assert {key: value for key, value in row.items() if key != "wall_seconds"} == rerun
