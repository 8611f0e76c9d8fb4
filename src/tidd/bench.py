"""GHZ / BV / DJ benchmark circuits, state evolution, and measurement.

Circuits are lists of gate specifications.  Every gate kind is a sum of
tensor products of 2x2 blocks (``_TERMS``), and every gate is materialized as
a full n-qubit matrix diagram and applied to a column-replicated state vector
by matrix multiplication.  Metrics track the final-state size and the
maximum size of any state or gate materialized during the run.

BV and DJ use phase oracles rather than ancilla oracles: this halves the
qubit count, keeps every amplitude inside the exact ring, and carries the
same information content.  The BV oracle is the diagonal (-1)**(s.x),
realized as one Z factor per set bit of the secret s.  A DJ circuit is the
BV circuit over a pattern: for the balanced oracle, a seeded random parity
pattern with qubit 0 always included (which guarantees balance); for the
constant oracle, all zeros (the identity).  The seed fully determines both.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from random import Random

from .core import Manager, SizeReport, size_metrics
from .errors import GateSpecError, require_at_least, require_index, require_power_of_two
from .linalg import MatrixTidd, VectorTidd, matvec, qubit_sum, vector_from_basis_state
from .analysis import sample
from .ops import apply
from .values import SQRT2_HALF, TIMES, Value

_H = (SQRT2_HALF, SQRT2_HALF, SQRT2_HALF, -SQRT2_HALF)
_X = (Value(0, 0), Value(1, 0), Value(1, 0), Value(0, 0))
_Z = (Value(1, 0), Value(0, 0), Value(0, 0), Value(-1, 0))
_I = (Value(1, 0), Value(0, 0), Value(0, 0), Value(1, 0))
_P0 = (Value(1, 0), Value(0, 0), Value(0, 0), Value(0, 0))  # |0><0|
_P1 = (Value(0, 0), Value(0, 0), Value(0, 0), Value(1, 0))  # |1><1|
_DIGITS = bytes.maketrans(b"\0\1", b"01")  # a sampled bit b -> the digit b

# kind -> terms; a term's entries go on the gate's targets in order, I elsewhere
_TERMS = {
    "h": ((_H,),),
    "x": ((_X,),),
    "z": ((_Z,),),
    "i": ((_I,),),
    "cnot": ((_P0,), (_P1, _X)),  # |0><0| (x) I + |1><1| (x) X, control first
    "cz": ((_P0,), (_P1, _Z)),
}
GATE_KINDS = tuple(_TERMS)


@dataclass(frozen=True)
class GateSpec:
    kind: str
    targets: tuple[int, ...]
    qubits: int

    def __post_init__(self) -> None:
        require_power_of_two(self.qubits, 1, "qubit count")
        if self.kind not in GATE_KINDS:
            raise GateSpecError(f"unknown gate kind {self.kind!r}")
        expected = len(_TERMS[self.kind][-1])
        if len(self.targets) != expected:
            raise GateSpecError(f"{self.kind} takes {expected} target(s)")
        for t in self.targets:
            require_index(t, self.qubits, "target")
        if len(set(self.targets)) != len(self.targets):
            raise GateSpecError("targets must be distinct")


def gate(kind: str, targets, qubits: int) -> GateSpec:
    ts = tuple(targets) if isinstance(targets, (tuple, list)) else (targets,)
    return GateSpec(kind, ts, qubits)


def gate_matrix(mgr: Manager, g: GateSpec) -> MatrixTidd:
    """The full n-qubit unitary for one gate: the sum of its ``_TERMS`` products."""
    terms = [dict(zip(g.targets, t)) for t in _TERMS[g.kind]]
    return qubit_sum(mgr, g.qubits, terms, _I)


def ghz_circuit(n: int) -> list[GateSpec]:
    """H on qubit 0, then a CNOT chain fanning out from qubit 0."""
    require_power_of_two(n, 2, "qubit count")
    return [gate("h", 0, n)] + [gate("cnot", (0, i), n) for i in range(1, n)]


def bv_secret(n: int, seed: int) -> tuple[int, ...]:
    require_power_of_two(n, 2, "qubit count")
    rng = Random(seed)
    return tuple(rng.randrange(2) for _ in range(n))


def bv_circuit(n: int, s) -> list[GateSpec]:
    """Bernstein-Vazirani with a phase oracle: H layer, (-1)**(s.x), H layer."""
    require_power_of_two(n, 2, "qubit count")
    s = tuple(s)
    if len(s) != n or any(b not in (0, 1) for b in s):
        raise GateSpecError(f"secret {s!r} is not {n} bits")
    layer = [gate("h", i, n) for i in range(n)]
    oracle = [gate("z", i, n) for i in range(n) if s[i]]
    return layer + oracle + list(layer)


def dj_parity_pattern(n: int, seed: int) -> tuple[int, ...]:
    """Balanced-oracle parity pattern: the seed's BV secret with qubit 0 forced on."""
    return (1,) + bv_secret(n, seed)[1:]


def dj_circuit(n: int, mode: str, seed: int = 0) -> list[GateSpec]:
    """Deutsch-Jozsa with a phase oracle: the BV circuit over a pattern.

    mode "constant": the all-zero pattern, whose oracle is the identity.
    mode "balanced": the seeded parity pattern b, whose oracle (-1)**(b.x) is
    balanced because b is nonzero.
    """
    if mode == "constant":
        return bv_circuit(n, (0,) * n)
    if mode == "balanced":
        return bv_circuit(n, dj_parity_pattern(n, seed))
    raise GateSpecError(f"unknown DJ mode {mode!r}")


# benchmark name -> its gate list for (qubits, seed)
CIRCUITS = {
    "ghz": lambda n, seed: ghz_circuit(n),
    "bv": lambda n, seed: bv_circuit(n, bv_secret(n, seed)),
    "dj": lambda n, seed: dj_circuit(n, "balanced", seed),
}


@dataclass(frozen=True)
class RunMetrics:
    final_size: SizeReport
    max_intermediate_size: int
    wall_time: float
    gate_count: int


def run_circuit(
    mgr: Manager, gates: list[GateSpec], initial: VectorTidd
) -> tuple[VectorTidd, RunMetrics]:
    """Fold matvec over the gate list, tracking sizes and wall time."""
    start = time.perf_counter()
    state = initial
    max_size = size_metrics(state.t.t).total
    for g in gates:
        matrix = gate_matrix(mgr, g)
        max_size = max(max_size, size_metrics(matrix.t).total)
        state = matvec(matrix, state)
        max_size = max(max_size, size_metrics(state.t.t).total)
    final = size_metrics(state.t.t)
    return state, RunMetrics(final, max_size, time.perf_counter() - start, len(gates))


def run_benchmark(
    mgr: Manager, algo: str, qubits: int, seed: int = 0
) -> tuple[VectorTidd, RunMetrics]:
    """Build and run one named benchmark from the all-zeros basis state."""
    if algo not in CIRCUITS:
        raise GateSpecError(f"unknown benchmark {algo!r}")
    gates = CIRCUITS[algo](qubits, seed)
    initial = vector_from_basis_state(mgr, qubits, (0,) * qubits)
    return run_circuit(mgr, gates, initial)


def measure_distribution(state: VectorTidd, shots: int, rng: Random) -> dict[str, int]:
    """Sample measurement outcomes (row bit strings) from a state vector.

    The state is squared pointwise (real amplitudes, so no conjugation),
    assignments are sampled from the induced distribution, and the don't-care
    column bits are drawn and discarded.  A state with no nonzero amplitude
    raises ZeroDistribution (from ``sample``).
    """
    require_at_least(shots, 1, "shots")
    squared = apply(TIMES, state.t.t, state.t.t)
    histogram: dict[str, int] = {}
    for _ in range(shots):
        row_bits = bytes(sample(squared, rng)[0::2]).translate(_DIGITS).decode()
        histogram[row_bits] = histogram.get(row_bits, 0) + 1
    return histogram


def metrics_row(algo: str, qubits: int, seed: int, metrics: RunMetrics) -> dict:
    """The metrics row, column by column; wall_seconds is rounded to microseconds."""
    f = metrics.final_size
    return {
        "algo": algo, "qubits": qubits, "seed": seed, "gates": metrics.gate_count,
        "final_nodes": f.nodes, "final_edges": f.edges, "final_total": f.total,
        "max_intermediate": metrics.max_intermediate_size,
        "wall_seconds": round(metrics.wall_time, 6),
    }


def csv_line(fields) -> str:
    """Comma-joined fields; floats (timings) print with six decimals."""
    return ",".join(f"{x:.6f}" if isinstance(x, float) else str(x) for x in fields)
