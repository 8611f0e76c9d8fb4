from itertools import permutations, product
from random import Random

import pytest

from tidd import analysis, builders, linalg
from tidd import Value, equal, evaluate, identity_matrix, validate
from tidd.bench import (
    GateSpec,
    bv_circuit,
    bv_secret,
    csv_line,
    dj_circuit,
    dj_parity_pattern,
    gate,
    gate_matrix,
    ghz_circuit,
    measure_distribution,
    metrics_row,
    run_benchmark,
    run_circuit,
)
from tidd.errors import GateSpecError, NotPowerOfTwo, ZeroDistribution
from tidd.linalg import (
    MatrixTidd,
    matmul,
    vector_amplitudes,
    vector_from_basis_state,
    vector_norm_squared,
)
from tidd.oracle import dense_from_tidd, dense_to_matrix, matrix_to_dense
from tidd.builders import from_truth_table
from tidd.values import SQRT2_HALF

from helpers import (
    GRID_2X2,
    V0,
    benchmark_run,
    dense_gate_apply,
    dense_gate_grid,
    grid_matvec,
    matrix_assignment,
    simulate_dense,
)


def test_gate_spec_validation():
    with pytest.raises(GateSpecError):
        gate("rx", 0, 2)
    with pytest.raises(GateSpecError):
        gate("cnot", (0, 0), 2)
    with pytest.raises(GateSpecError):
        gate("h", 5, 2)
    with pytest.raises(GateSpecError):
        GateSpec("h", (0, 1), 2)


@pytest.mark.parametrize(
    "make",
    [
        lambda: GateSpec("h", (1.5,), 4),
        lambda: gate("h", 1.5, 4),
        lambda: gate("cnot", (0, "1"), 4),
        lambda: gate("z", None, 4),
    ],
)
def test_gate_targets_must_be_integers(make):
    with pytest.raises(GateSpecError):
        make()


def test_boolean_gate_targets_are_rejected():
    for make in (lambda: gate("x", True, 4), lambda: gate("cnot", (False, True), 2)):
        with pytest.raises(GateSpecError):
            make()


def test_single_qubit_gate_dense(mgr):
    g = gate_matrix(mgr, gate("h", 0, 1))
    grid = dense_to_matrix(dense_from_tidd(g.t))
    assert grid == [[SQRT2_HALF, SQRT2_HALF], [SQRT2_HALF, -SQRT2_HALF]]


def test_gates_match_dense_grids(mgr):
    rng = Random(33)
    cases = [
        ("h", (0,), 2), ("h", (1,), 2), ("x", (1,), 2), ("z", (0,), 2),
        ("i", (0,), 2), ("cnot", (0, 1), 2), ("cnot", (1, 0), 2),
        ("cz", (0, 1), 2), ("h", (2,), 4), ("cnot", (0, 3), 4),
        ("cz", (3, 1), 4), ("x", (2,), 4),
    ]
    for kind, targets, n in cases:
        g = gate_matrix(mgr, gate(kind, targets, n))
        assert validate(g.t).ok
        assert dense_to_matrix(dense_from_tidd(g.t)) == dense_gate_grid(
            kind, targets, n
        )


def test_dense_gate_apply_matches_the_grid_product():
    # the per-pair reference against the textbook 2**n x 2**n grid product
    rng = Random(34)
    amplitudes = (Value(1, 0), Value(-2, 0), SQRT2_HALF, Value(3, -1, 2))
    for n in (1, 2, 3, 4):
        vec = [rng.choice(amplitudes) for _ in range(1 << n)]
        cases = [(kind, (t,)) for kind in ("h", "x", "z", "i") for t in range(n)]
        cases += [
            (kind, (c, t))
            for kind in ("cnot", "cz")
            for c in range(n)
            for t in range(n)
            if c != t
        ]
        for kind, targets in cases:
            expected = grid_matvec(dense_gate_grid(kind, targets, n), vec)
            assert dense_gate_apply(kind, targets, n, vec) == expected, (kind, targets)


def test_eight_qubit_gates_match_dense_grids(mgr):
    # the targets leave blank spans of 1, 2 and 4 qubits on both sides
    cases = [(kind, (q,)) for kind in ("h", "x", "z") for q in (0, 3, 4, 7)]
    cases += [("cnot", (0, 7)), ("cz", (5, 2))]
    for kind, targets in cases:
        g = gate_matrix(mgr, gate(kind, targets, 8))
        assert dense_to_matrix(dense_from_tidd(g.t)) == dense_gate_grid(kind, targets, 8)


def closed_form_entry(kind, targets, x, y):
    """Gate entry (x, y): [x_i = y_i] off the targets times the targets' 2x2 entry."""
    if any(a != b for q, (a, b) in enumerate(zip(x, y)) if q not in targets):
        return V0
    if len(targets) == 1:
        (t,) = targets
        return GRID_2X2[kind][x[t]][y[t]]
    control, t = targets
    if x[control] != y[control]:
        return V0
    block = "i" if x[control] == 0 else {"cnot": "x", "cz": "z"}[kind]
    return GRID_2X2[block][x[t]][y[t]]


@pytest.mark.parametrize("n", [16, 64, 512])
def test_gates_past_the_dense_cap_match_the_closed_form(mgr, n):
    rng = Random(n)
    spots = (0, n // 2, n - 1)
    cases = [(kind, (q,)) for kind in ("h", "x", "z", "i") for q in spots]
    cases += [(kind, pair) for kind in ("cnot", "cz") for pair in permutations(spots, 2)]
    for kind, targets in cases:
        g = gate_matrix(mgr, gate(kind, targets, n)).t
        pairs = [([rng.randrange(2) for _ in range(n)], [rng.randrange(2) for _ in range(n)])
                 for _ in range(64)]
        for _ in range(4):  # pairs that differ only on the gate's own qubits
            base = [rng.randrange(2) for _ in range(n)]
            for own in product((0, 1), repeat=2 * len(targets)):
                x, y = list(base), list(base)
                for i, t in enumerate(targets):
                    x[t], y[t] = own[2 * i], own[2 * i + 1]
                pairs.append((x, y))
        for x, y in pairs:
            expected = closed_form_entry(kind, targets, x, y)
            assert evaluate(g, matrix_assignment(x, y)) == expected, (kind, targets)


def test_gate_matrix_builds_no_equality_relation(mgr, monkeypatch):
    calls = []

    def counted(real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)
        return wrapper

    for module in (builders, linalg):
        monkeypatch.setattr(module, "equality_relation", counted(module.equality_relation))
    gate_matrix(mgr, gate("cnot", (0, 7), 8))
    assert calls == []


def test_cnot_is_permutation(mgr):
    g = gate_matrix(mgr, gate("cnot", (0, 1), 2))
    grid = dense_to_matrix(dense_from_tidd(g.t))
    expected = [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, 1, 0],
    ]
    assert grid == [[Value(x, 0) for x in row] for row in expected]


def test_identity_gate_equals_identity_matrix(mgr):
    for n in (1, 2, 4):
        g = gate_matrix(mgr, gate("i", 0, n))
        assert equal(g.t, identity_matrix(mgr, n).t)


def test_gate_unitarity(mgr):
    for kind, targets, n in [
        ("h", (0,), 1), ("x", (0,), 1), ("z", (0,), 1),
        ("h", (1,), 2), ("cnot", (0, 1), 2), ("cz", (1, 0), 2),
        ("cnot", (2, 0), 4),
    ]:
        g = gate_matrix(mgr, gate(kind, targets, n))
        transpose_grid = dense_to_matrix(dense_from_tidd(g.t))
        side = len(transpose_grid)
        transposed = [[transpose_grid[c][r] for c in range(side)] for r in range(side)]
        gt = MatrixTidd(
            from_truth_table(mgr, g.t.level, matrix_to_dense(transposed, g.t.level).outputs)
        )
        assert equal(matmul(gt, g).t, identity_matrix(mgr, n).t)


def test_gate_requires_power_of_two_qubits(mgr):
    with pytest.raises(NotPowerOfTwo):
        gate_matrix(mgr, gate("h", 0, 3))


def test_ghz_circuit_structure():
    gates = ghz_circuit(4)
    assert gates[0] == gate("h", 0, 4)
    assert [g.kind for g in gates[1:]] == ["cnot"] * 3


def test_ghz_final_state_matches_dense(mgr):
    for n in (2, 4, 8):
        state, _ = run_benchmark(mgr, "ghz", n, seed=0)
        assert vector_amplitudes(state) == simulate_dense(ghz_circuit(n), n)
        amps = vector_amplitudes(state)
        assert amps[0] == SQRT2_HALF and amps[-1] == SQRT2_HALF
        assert all(a == Value(0, 0) for a in amps[1:-1])


def test_bv_final_state_is_secret(mgr):
    for n, seed in ((4, 0), (8, 0), (8, 5)):
        s = bv_secret(n, seed)
        state, _ = run_circuit(
            mgr, bv_circuit(n, s), vector_from_basis_state(mgr, n, (0,) * n)
        )
        amps = vector_amplitudes(state)
        target = int("".join(map(str, s)), 2)
        assert amps[target] == Value(1, 0)
        assert all(a == Value(0, 0) for i, a in enumerate(amps) if i != target)
        assert vector_amplitudes(state) == simulate_dense(bv_circuit(n, s), n)


def test_bv_64_ends_at_the_secret_basis_state():
    state, _ = benchmark_run("bv", 64, 0)
    assert state == vector_from_basis_state(state.t.t.manager, 64, bv_secret(64, 0))


def test_bv_secret_must_be_bits():
    for s in ((2, 0), (-1, 0), (0.5, 0)):
        with pytest.raises(GateSpecError):
            bv_circuit(2, s)
    assert bv_circuit(2, (True, False)) == bv_circuit(2, (1, 0))


def test_dj_constant_returns_zeros(mgr):
    state, _ = run_circuit(
        mgr, dj_circuit(8, "constant"), vector_from_basis_state(mgr, 8, (0,) * 8)
    )
    amps = vector_amplitudes(state)
    assert amps[0] == Value(1, 0)
    assert all(a == Value(0, 0) for a in amps[1:])


def test_dj_balanced_never_returns_zeros(mgr):
    state, _ = run_circuit(
        mgr, dj_circuit(8, "balanced", seed=3), vector_from_basis_state(mgr, 8, (0,) * 8)
    )
    amps = vector_amplitudes(state)
    assert amps[0] == Value(0, 0)
    pattern = dj_parity_pattern(8, 3)
    assert pattern[0] == 1
    assert amps[int("".join(map(str, pattern)), 2)] == Value(1, 0)


def test_dj_mode_validation():
    with pytest.raises(GateSpecError):
        dj_circuit(4, "bogus")


def test_secrets_and_patterns_check_the_qubit_count(mgr):
    with pytest.raises(NotPowerOfTwo):
        run_benchmark(mgr, "bv", 2.0)
    with pytest.raises(NotPowerOfTwo):
        bv_secret(-4, 0)
    with pytest.raises(NotPowerOfTwo):
        dj_parity_pattern(0, 0)


def test_norm_conserved_through_ghz(mgr):
    n = 8
    state = vector_from_basis_state(mgr, n, (0,) * n)
    for g in ghz_circuit(n):
        state, _ = run_circuit(mgr, [g], state)
        assert vector_norm_squared(state) == Value(1, 0)


def test_run_metrics_invariants(mgr):
    state, metrics = run_benchmark(mgr, "ghz", 8, seed=0)
    assert metrics.max_intermediate_size >= metrics.final_size.total
    assert metrics.gate_count == 8
    assert metrics.final_size.total == metrics.final_size.nodes + metrics.final_size.edges
    assert validate(state.t.t).ok


def test_states_and_gates_validate_throughout(mgr):
    n = 4
    for gates in (ghz_circuit(n), bv_circuit(n, bv_secret(n, 1))):
        state = vector_from_basis_state(mgr, n, (0,) * n)
        assert validate(state.t.t).ok
        for g in gates:
            matrix = gate_matrix(mgr, g)
            assert validate(matrix.t).ok
            state, _ = run_circuit(mgr, [g], state)
            assert validate(state.t.t).ok


def test_measure_ghz(mgr):
    state, _ = run_benchmark(mgr, "ghz", 8, seed=0)
    hist = measure_distribution(state, 4000, Random(34))
    assert set(hist) == {"0" * 8, "1" * 8}
    assert abs(hist["0" * 8] / 4000 - 0.5) < 0.05


def test_measure_basis_state(mgr):
    v = vector_from_basis_state(mgr, 4, (1, 0, 1, 1))
    hist = measure_distribution(v, 50, Random(35))
    assert hist == {"1011": 50}


def test_measure_bv_returns_secret(mgr):
    s = bv_secret(8, 0)
    state, _ = run_benchmark(mgr, "bv", 8, seed=0)
    hist = measure_distribution(state, 100, Random(36))
    assert hist == {"".join(map(str, s)): 100}


def test_measure_all_zero_state_raises(mgr):
    zero = linalg.VectorTidd(MatrixTidd(builders.constant(mgr, 2, 0)))
    with pytest.raises(ZeroDistribution):
        measure_distribution(zero, 10, Random(39))


def test_second_measure_batch_reuses_the_squared_state(mgr, monkeypatch):
    state, _ = run_benchmark(mgr, "bv", 8, seed=0)
    measure_distribution(state, 10, Random(37))
    before = dict(mgr.stats)
    counted = []
    count_calls = analysis.layer_path_counts

    def counting(top):
        counted.append(top)
        return count_calls(top)

    monkeypatch.setattr(analysis, "layer_path_counts", counting)
    measure_distribution(state, 10, Random(38))
    assert mgr.stats["apply_hits"] == before["apply_hits"] + 1
    assert mgr.stats["apply_misses"] == before["apply_misses"]
    # one draw_plan read per sample call; a warm plan reads no path counts
    assert counted == []
    assert mgr.stats["draw_plan_hits"] == before["draw_plan_hits"] + 10
    assert mgr.stats["draw_plan_misses"] == before["draw_plan_misses"]


def test_random_circuits_match_dense(mgr):
    rng = Random(37)
    kinds = ("h", "x", "z", "cnot", "cz")
    for n in (1, 2, 4):
        for _ in range(5):
            gates = []
            for _ in range(rng.randint(1, 6)):
                kind = rng.choice(kinds if n > 1 else ("h", "x", "z"))
                if kind in ("cnot", "cz"):
                    a, b = rng.sample(range(n), 2)
                    gates.append(gate(kind, (a, b), n))
                else:
                    gates.append(gate(kind, rng.randrange(n), n))
            start = tuple(rng.randrange(2) for _ in range(n))
            state, _ = run_circuit(
                mgr, gates, vector_from_basis_state(mgr, n, start)
            )
            assert vector_amplitudes(state) == simulate_dense(gates, n, start)


def test_metrics_csv_row_format(mgr):
    _, metrics = run_benchmark(mgr, "ghz", 4, seed=0)
    fields = metrics_row("ghz", 4, 0, metrics)
    row = csv_line(fields.values()).split(",")
    assert len(fields) == len(row) == 9
    assert row[0] == "ghz" and row[1] == "4"
