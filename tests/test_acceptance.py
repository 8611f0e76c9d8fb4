"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (run with -s to see them on success).

Diagrams built here are registered per criterion, so criteria 6, 9 and 12
can sweep what the earlier criteria produced; an earlier criterion not yet
run when a sweep needs it runs first, so each sweep passes when run alone.
"""

import time
from random import Random

from tidd import (
    AND,
    OR,
    PLUS,
    TIMES,
    XOR,
    anti_diagonal,
    apply,
    equal,
    equality_relation,
    hadamard_family,
    identity_matrix,
    kronecker,
    matmul,
    negation,
    path_counts,
    projection,
    sample,
    scalar_multiply,
    size_metrics,
    state_counts,
    top_path_counts,
    total_states,
    validate,
)
from tidd.bench import (
    bv_circuit,
    bv_secret,
    measure_distribution,
    run_benchmark,
    run_circuit,
)
from tidd.builders import anti_diagonal_fold_profile, from_truth_table
from tidd.core import Manager
from tidd.linalg import MatrixTidd, vector_from_basis_state
from tidd.ops import reduce_tidd
from tidd.oracle import (
    class_counts,
    dense_from_tidd,
    dense_matmul,
    random_equivalence_case,
)

from helpers import tv_distance

MGR = Manager()
PRODUCERS: list = []  # the criteria that register diagrams, in file order
REGISTRY: dict = {}  # criterion -> (the diagrams it produced, the subset within oracle scale)


def producer(criterion):
    PRODUCERS.append(criterion)
    return criterion


def recorder(criterion):
    """Start ``criterion``'s record afresh and return its ``register``."""
    produced, in_oracle_scale = REGISTRY[criterion] = [], []

    def register(t, in_scale=None):
        produced.append(t)
        if in_scale if in_scale is not None else t.num_vars <= 16:
            in_oracle_scale.append(t)
        return t

    return register


def registered(sweep, in_scale=False):
    """What the criteria before ``sweep`` registered, in order; one not yet run runs first."""
    criteria = [c for c in PRODUCERS if c.__name__ < sweep.__name__]
    for criterion in criteria:
        if criterion not in REGISTRY:
            criterion()
    return [t for criterion in criteria for t in REGISTRY[criterion][in_scale]]


def report(n, message):
    print(f"\nACCEPTANCE {n} PASS: {message}")


@producer
def test_criterion_01_hadamard_sizes():
    register = recorder(test_criterion_01_hadamard_sizes)
    start = time.perf_counter()
    for i in range(1, 17):
        h = hadamard_family(MGR, i)
        if i <= 4:
            register(h)
        assert total_states(h) == 2 * i + 2
        edges = size_metrics(h).edges
        if i == 1:
            assert edges == 6
        else:
            assert edges == 4 * i + 2  # affine in i with slope 4
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"hadamard states 2i+2 and edges 4i+2 for i=1..16 ({elapsed:.3f}s)")


@producer
def test_criterion_02_equality_sizes():
    register = recorder(test_criterion_02_equality_sizes)
    start = time.perf_counter()
    for l in range(1, 17):
        e = equality_relation(MGR, l)
        if l <= 4:
            register(e)
        assert total_states(e) == 2 * l + 2
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"equality states 2l+2 for l=1..16 ({elapsed:.3f}s)")


@producer
def test_criterion_03_anti_diagonal_blowup():
    register = recorder(test_criterion_03_anti_diagonal_blowup)
    start = time.perf_counter()
    measured = {}
    for n in (2, 4, 8):
        h = anti_diagonal(MGR, n)
        register(h, in_scale=(n <= 4))
        row_level = n.bit_length() - 1
        count = state_counts(h)[row_level]
        measured[n] = count
        assert count == 1 << n
        if n <= 4:
            assert count == class_counts(dense_from_tidd(h))[row_level]
        profile = anti_diagonal_fold_profile(MGR, n)
        assert all(b >= 2 * a for a, b in zip(profile, profile[1:]))
    assert measured[4] >= 2 * measured[2] and measured[8] >= 2 * measured[4]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(3, f"anti-diagonal row-level states {measured} are 2^n, as the dense class "
              f"count says at n <= 4, "
              f"doubling per folded factor ({elapsed:.1f}s)")


@producer
def test_criterion_04_oracle_pointwise_equivalence():
    register = recorder(test_criterion_04_oracle_pointwise_equivalence)
    start = time.perf_counter()
    rng = Random(2024)
    for num_vars in (4, 8, 16):
        level = num_vars.bit_length() - 1
        for _ in range(100):
            f, d = random_equivalence_case(MGR, rng, level)
            register(f)
            assert dense_from_tidd(f) == d  # canonical: equal palette and index
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(4, f"300 random expressions exhaustively match the oracle ({elapsed:.1f}s)")


def _random_ac_case(rng):
    """Operands plus an associative-commutative operation for fold scrambling."""
    level = 3
    op = rng.choice((PLUS, TIMES, AND, OR, XOR))
    terms = []
    for _ in range(rng.randint(3, 6)):
        p = projection(MGR, level, rng.randrange(8))
        if rng.random() < 0.4:
            p = negation(p)
        terms.append(p)
    return op, terms


def _fold_left(op, terms):
    acc = terms[0]
    for t in terms[1:]:
        acc = apply(op, acc, t)
    return acc


def _fold_random_tree(op, terms, rng):
    items = list(terms)
    while len(items) > 1:
        j = rng.randrange(len(items) - 1)
        right = items.pop(j + 1)
        left = items.pop(j)
        items.insert(j, apply(op, left, right))
    return items[0]


@producer
def test_criterion_05_canonicity():
    register = recorder(test_criterion_05_canonicity)
    rng = Random(99)
    for _ in range(100):
        op, terms = _random_ac_case(rng)
        shuffled = list(terms)
        rng.shuffle(shuffled)
        a = _fold_left(op, terms)
        b = _fold_random_tree(op, shuffled, rng)
        assert equal(a, b)
        register(a)
    report(5, "100 scrambled fold orders all meet at identical handles")


def test_criterion_06_minimality():
    in_scale = registered(test_criterion_06_minimality, in_scale=True)
    assert in_scale, "earlier criteria must have registered in-scale diagrams"
    start = time.perf_counter()
    checked = 0
    seen = set()
    for f in in_scale:
        if f in seen:
            continue
        seen.add(f)
        oracle_counts = class_counts(dense_from_tidd(f))
        counts = state_counts(f)
        for i in range(f.level + 1):
            assert counts[i] == oracle_counts[i]
        checked += 1
    elapsed = time.perf_counter() - start
    report(6, f"per-level state counts equal oracle class counts for "
              f"{checked} diagrams ({elapsed:.1f}s)")


@producer
def test_criterion_07_matrix_multiplication():
    register = recorder(test_criterion_07_matrix_multiplication)
    start = time.perf_counter()
    rng = Random(4242)
    h = MatrixTidd(hadamard_family(MGR, 1))
    assert equal(matmul(h, h).t, scalar_multiply(2, identity_matrix(MGR, 1).t))
    cases = 0
    for qubits in (1, 2, 4):
        ident = identity_matrix(MGR, qubits)
        level = qubits.bit_length()
        for _ in range(34 if qubits == 1 else 33):
            table = [rng.randint(-3, 3) for _ in range(1 << (1 << level))]
            a = MatrixTidd(from_truth_table(MGR, level, table))
            table = [rng.randint(-3, 3) for _ in range(1 << (1 << level))]
            b = MatrixTidd(from_truth_table(MGR, level, table))
            register(a.t)
            register(b.t)
            product = matmul(a, b)
            register(product.t)
            expected = dense_matmul(dense_from_tidd(a.t), dense_from_tidd(b.t))
            assert dense_from_tidd(product.t).outputs == expected.outputs
            assert matmul(ident, a) == a and matmul(a, ident) == a
            cases += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(7, f"{cases} random matrix products match the dense oracle; "
              f"H*H = 2I; identity laws hold ({elapsed:.1f}s)")


def test_criterion_08_kronecker_recurrence():
    for i in range(1, 7):
        hi = hadamard_family(MGR, i)
        assert equal(kronecker(hi, hi), hadamard_family(MGR, i + 1))
    report(8, "kronecker(H_i, H_i) equals H_{i+1} for i = 1..6")


def test_criterion_09_path_counting():
    assert path_counts(hadamard_family(MGR, 1))[1] == (3, 1)
    assert top_path_counts(equality_relation(MGR, 2)) == (4, 12)
    subjects = [f for f in registered(test_criterion_09_path_counting) if f.level <= 6]
    subjects += [hadamard_family(MGR, 6), equality_relation(MGR, 6)]
    for f in subjects:
        assert sum(top_path_counts(f)) == 1 << (1 << f.level)
    report(9, f"top counts partition 2^(2^l) for {len(subjects)} diagrams; "
              f"H_2 counts (3,1); EQ_4 counts (4,12)")


@producer
def test_criterion_10_sampling():
    register = recorder(test_criterion_10_sampling)
    start = time.perf_counter()
    shots = 10_000

    eq = equality_relation(MGR, 2)
    rng = Random(1001)
    hist: dict = {}
    for _ in range(shots):
        bits = "".join(map(str, sample(eq, rng)))
        hist[bits] = hist.get(bits, 0) + 1
    exact = {b: 0.25 for b in ("0000", "0011", "1100", "1111")}
    assert set(hist) == set(exact)
    assert tv_distance(hist, exact, shots) < 0.05

    ghz_state, _ = run_benchmark(MGR, "ghz", 8, seed=0)
    register(ghz_state.t.t, in_scale=False)
    hist = measure_distribution(ghz_state, shots, Random(1002))
    assert set(hist) == {"0" * 8, "1" * 8}
    assert 0.45 <= hist["0" * 8] / shots <= 0.55
    assert 0.45 <= hist["1" * 8] / shots <= 0.55

    secret = bv_secret(8, 0)
    bv_state, _ = run_circuit(
        MGR, bv_circuit(8, secret), vector_from_basis_state(MGR, 8, (0,) * 8)
    )
    register(bv_state.t.t, in_scale=False)
    hist = measure_distribution(bv_state, 100, Random(1003))
    assert hist == {"".join(map(str, secret)): 100}

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(10, f"EQ uniform within TV 0.05; GHZ(8) split in [0.45,0.55]; "
               f"BV(8) 100/100 shots equal the secret ({elapsed:.1f}s)")


def _affine_fit(xs, ys):
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum(
        (x - mean_x) ** 2 for x in xs
    )
    return slope, mean_y - slope * mean_x


@producer
def test_criterion_11_benchmark_trends():
    register = recorder(test_criterion_11_benchmark_trends)
    start = time.perf_counter()

    ks = list(range(6, 13))
    totals = []
    for k in ks:
        state, metrics = run_benchmark(MGR, "ghz", 1 << k, seed=0)
        totals.append(metrics.final_size.total)
        assert metrics.max_intermediate_size <= 10 * metrics.final_size.total
        if k == 6:
            register(state.t.t, in_scale=False)
    slope, intercept = _affine_fit(ks, totals)
    for k, total in zip(ks, totals):
        assert abs(total - (slope * k + intercept)) < 0.10 * total

    dj_max = []
    for n in (8, 16, 32):
        state, metrics = run_benchmark(MGR, "dj", n, seed=0)
        dj_max.append(metrics.max_intermediate_size)
        register(state.t.t, in_scale=False)
    assert dj_max[1] >= 2 * dj_max[0]
    assert dj_max[2] >= 2 * dj_max[1]

    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(11, f"GHZ totals {totals} fit {slope:.2f}k+{intercept:.2f} within 10%; "
               f"DJ max sizes {dj_max} at least double per doubling ({elapsed:.1f}s)")


def test_criterion_12_structural_health():
    produced = registered(test_criterion_12_structural_health)
    assert produced, "earlier criteria must have registered diagrams"
    seen = set()
    checked = 0
    for f in produced:
        if f in seen:
            continue
        seen.add(f)
        assert validate(f).ok
        again = reduce_tidd(f)
        assert again.top is f.top and again.values == f.values
        checked += 1
    report(12, f"validate() and reduction idempotence hold for {checked} diagrams")
