"""The committed BENCH_ladder.json agrees with the code in this tree.

Every row small enough to rerun in under a second (GHZ up to 128 qubits, BV
and DJ up to 64) is simulated again, and every field but ``wall_seconds``
must equal the committed one.  ``scripts/bench_ladder.py`` rewrites the file.
At seed 0 every DJ row repeats its BV row, since the two gate lists agree.
"""

import json
from pathlib import Path

import pytest

from tidd.bench import metrics_row

from helpers import benchmark_run

LADDER = json.loads((Path(__file__).resolve().parents[1] / "BENCH_ladder.json").read_text())
QUICK = [row for row in LADDER["rows"] if row["qubits"] <= (128 if row["algo"] == "ghz" else 64)]


def test_quick_rows_are_the_small_rungs():
    assert [(row["algo"], row["qubits"], row["seed"]) for row in QUICK] == [
        ("ghz", 64, 0), ("ghz", 128, 0),
        ("bv", 8, 0), ("bv", 16, 0), ("bv", 32, 0), ("bv", 64, 0),
        ("dj", 8, 0), ("dj", 16, 0), ("dj", 32, 0), ("dj", 64, 0),
    ]


@pytest.mark.parametrize("row", QUICK, ids=lambda row: f"{row['algo']}-{row['qubits']}")
def test_ladder_row_matches_a_rerun(row):
    algo, qubits, seed = row["algo"], row["qubits"], row["seed"]
    _, metrics = benchmark_run(algo, qubits, seed)
    rerun = metrics_row(algo, qubits, seed, metrics)
    del rerun["wall_seconds"]
    assert {key: value for key, value in row.items() if key != "wall_seconds"} == rerun


def test_dj_rows_repeat_the_bv_rows_at_seed_0():
    # bit 0 of every seed-0 secret is 1, so the DJ pattern is the BV secret
    def fields(algo):
        return {
            row["qubits"]: {k: v for k, v in row.items() if k not in ("algo", "wall_seconds")}
            for row in LADDER["rows"] if (row["algo"], row["seed"]) == (algo, 0)
        }

    dj = fields("dj")
    assert sorted(dj) == [8, 16, 32, 64, 128]
    assert dj == fields("bv")
