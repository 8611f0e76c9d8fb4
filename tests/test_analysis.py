from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import accumulate
from math import isqrt
from random import Random

import pytest

from tidd import (
    ONE,
    Manager,
    Tidd,
    Value,
    anti_diagonal,
    constant,
    equality_relation,
    hadamard_family,
    path_counts,
    projection,
    sample,
    top_path_counts,
)
from tidd.analysis import draw_plan, sample_weights
from tidd.bench import run_benchmark
from tidd.core import evaluate
from tidd.errors import NegativeWeight, ZeroDistribution
from tidd.builders import from_truth_table
from tidd.ops import apply
from tidd.values import TIMES

from helpers import benchmark_run, bits_of, random_truth_table, reference_sample, tv_distance


def brute_force_counts(f):
    """Independent per-level path counts by enumerating every string."""
    layers = f.top.stack()
    per_level = []
    for i, layer in enumerate(layers):
        counts = [0] * layer.num_states
        for w in range(1 << (1 << i)):
            bits = bits_of(w, 1 << i)
            states = list(bits) if layers[0].num_states == 2 else [0] * len(bits)
            for lay in layers[1 : i + 1]:
                states = [
                    lay.table[states[j]][states[j + 1]]
                    for j in range(0, len(states), 2)
                ]
            counts[states[0]] += 1
        per_level.append(tuple(counts))
    return tuple(per_level)


def test_h2_level1_counts(mgr):
    assert path_counts(hadamard_family(mgr, 1))[1] == (3, 1)


def test_constant_count(mgr):
    for level in (0, 1, 2, 3, 6):
        assert top_path_counts(constant(mgr, level, 1)) == (1 << (1 << level),)


def test_eq4_counts(mgr):
    assert top_path_counts(equality_relation(mgr, 2)) == (4, 12)


def test_count_conservation(mgr):
    for f in (
        hadamard_family(mgr, 6),
        equality_relation(mgr, 6),
        projection(mgr, 5, 17),
        constant(mgr, 6, 2),
    ):
        for i, counts in enumerate(path_counts(f)):
            assert sum(counts) == 1 << (1 << i)


def test_counts_match_brute_force(mgr):
    rng = Random(14)
    subjects = [
        hadamard_family(mgr, 3),
        equality_relation(mgr, 3),
        projection(mgr, 3, 4),
    ]
    subjects += [
        from_truth_table(mgr, 2, random_truth_table(rng, 2)) for _ in range(5)
    ]
    for f in subjects:
        assert path_counts(f) == brute_force_counts(f)


def test_index_lists_every_incoming_pair_with_brute_force_weights(mgr):
    rng = Random(23)
    subjects = [hadamard_family(mgr, level) for level in (1, 2, 3)]
    subjects += [equality_relation(mgr, level) for level in (1, 2, 3)]
    subjects += [
        from_truth_table(mgr, level, random_truth_table(rng, level))
        for level in (1, 2, 3)
        for _ in range(3)
    ]
    state, _ = run_benchmark(mgr, "bv", 8, seed=0)
    subjects.append(apply(TIMES, state.t.t, state.t.t))
    subjects.append(constant(mgr, 2, 3))  # DontCare leaves
    subjects += [projection(mgr, 0, 0), constant(mgr, 0, 3)]  # level-0 tops
    for f in subjects:
        if any(v.sign() < 0 for v in f.values):  # same tables, drawable values
            f = Tidd(f.top, tuple(Value(i + 1, 0) for i in range(len(f.values))))
        expected = brute_force_counts(f)
        assert path_counts(f) == expected
        layers = f.top.stack()
        fork = layers[0].num_states == 2
        nodes = draw_plan(f)
        # node 0 draws the top state, node 1 a DontCare bit, then one node
        # per state at levels >= 1, top level first
        first, start = {}, 2  # node id of state 0, per level
        for layer in reversed(layers[1:]):
            first[layer.level] = start
            start += layer.num_states
        assert len(nodes) == start
        cums, total, k, children, bits = nodes[0]
        assert cums == tuple(accumulate(sample_weights(f)))
        assert total == cums[-1] and k == total.bit_length()
        if f.level:
            assert (children, bits) == (tuple((2 + q,) for q in range(len(cums))), False)
        elif fork:
            assert (children, bits) == (((0,), (1,)), True)
        else:
            assert (children, bits) == (((1,),), False)
        assert nodes[1] == ((1, 2), 2, 2, ((0,), (1,)), True)
        for layer in layers[1:]:
            below = expected[layer.level - 1]
            for q in range(layer.num_states):
                cums, total, k, children, bits = nodes[first[layer.level] + q]
                pairs = tuple(
                    (a, b)
                    for a, row in enumerate(layer.table)
                    for b, entry in enumerate(row)
                    if entry == q
                )
                if layer.level > 1:
                    child = first[layer.level - 1]
                    assert children == tuple((child + b, child + a) for a, b in pairs)
                    assert bits is False
                elif fork:
                    assert (children, bits) == (pairs, True)
                else:
                    assert (children, bits) == (((1, 1),) * len(pairs), False)
                assert cums == tuple(accumulate(below[a] * below[b] for a, b in pairs))
                assert total == cums[-1] == expected[layer.level][q]
                assert k == total.bit_length()


def test_sample_draws_what_the_reference_sampler_draws(mgr):
    squares = [benchmark_run("ghz", 64, 0)[0].t.t, benchmark_run("bv", 16, 0)[0].t.t]
    squares.append(anti_diagonal(mgr, 4))
    subjects = [apply(TIMES, f, f) for f in squares]
    subjects += [
        projection(mgr, 0, 0),  # level-0 Fork
        constant(mgr, 0, 3),  # level-0 DontCare
        equality_relation(mgr, 1),  # level-1 top
        constant(mgr, 3, 2),  # DontCare leaves
    ]
    assert [f.level for f in subjects] == [7, 5, 4, 0, 0, 1, 3]
    for f in subjects:
        for seed in (0, 1, 2):
            rng, ref = Random(seed), Random(seed)
            assert [sample(f, rng) for _ in range(20)] == [
                reference_sample(f, ref) for _ in range(20)
            ]
            assert rng.getstate() == ref.getstate()


def test_diagrams_sharing_a_top_layer_draw_by_their_own_values(mgr):
    f = from_truth_table(mgr, 1, [1, 2, 2, 2])
    g = from_truth_table(mgr, 1, [2, 1, 1, 1])
    assert f.top is g.top and f.values != g.values
    for seed in (0, 1, 2):
        rng, ref = Random(seed), Random(seed)
        for _ in range(20):
            for h in (f, g):
                assert sample(h, rng) == reference_sample(h, ref)
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize(
    "n", [1, 2, 3, 2**5, 2**5 - 1, 2**5 + 1, 2**64, 2**64 - 1, 2**64 + 1, 2**1024 + 3]
)
def test_inlined_draw_is_randrange(mgr, n):
    # a root of total n whose entry i outputs the bits (i, i)
    f = equality_relation(mgr, 1)
    cums = tuple(range(1, n + 1)) if n <= 33 else (n // 3, n // 2, n - 1, n)
    node = (cums, n, n.bit_length(), tuple((i, i) for i in range(len(cums))), True)
    mgr.draw_plan_cache[f,] = (node,)
    for seed in range(8):
        rng, ref = Random(seed), Random(seed)
        i = bisect_right(cums, ref.randrange(n))
        assert sample(f, rng) == (i, i)
        assert rng.getstate() == ref.getstate()


def test_sample_eq_always_satisfying(mgr):
    f = equality_relation(mgr, 2)
    rng = Random(15)
    for _ in range(200):
        a = sample(f, rng)
        assert a[0::2] == a[1::2]
        assert evaluate(f, a) == Value(1, 0)


def test_sample_eq_uniform(mgr):
    f = equality_relation(mgr, 2)
    rng = Random(16)
    shots = 10_000
    hist = Counter("".join(map(str, sample(f, rng))) for _ in range(shots))
    # interleaved <x0,y0,x1,y1>: x bits at even positions must equal y bits
    exact = {a: 0.25 for a in ("0000", "0011", "1100", "1111")}
    assert set(hist) == set(exact)
    assert tv_distance(hist, exact, shots) < 0.05


def test_sample_constant_uniform_first_bit(mgr):
    f = constant(mgr, 2, 1)
    rng = Random(17)
    shots = 10_000
    ones = sum(sample(f, rng)[0] for _ in range(shots))
    assert abs(ones / shots - 0.5) < 0.02


def test_sample_weighted_by_value(mgr):
    # values 1 and 3 over complementary halves: draws follow the weights
    f = from_truth_table(mgr, 1, [1, 1, 3, 3])  # weight 2*1 vs 2*3
    rng = Random(18)
    shots = 8_000
    heavy = sum(sample(f, rng)[0] for _ in range(shots))
    assert abs(heavy / shots - 0.75) < 0.03


def test_sample_never_hits_zero_value(mgr):
    f = from_truth_table(mgr, 2, [0, 1] * 8)
    rng = Random(19)
    for _ in range(100):
        assert evaluate(f, sample(f, rng)) != Value(0, 0)


def test_sample_negative_weight_rejected(mgr):
    f = hadamard_family(mgr, 2)
    with pytest.raises(NegativeWeight):
        sample(f, Random(20))


def test_sample_zero_distribution(mgr):
    f = constant(mgr, 2, 0)
    for _ in range(2):  # a raising plan build is not cached, so it raises again
        with pytest.raises(ZeroDistribution):
            sample(f, Random(21))
    assert mgr.draw_plan_cache == {}


def test_sample_irrational_weights(mgr):
    # values 0 and 1/sqrt(2): sampling must still hit only the nonzero half
    f = from_truth_table(mgr, 1, [Value(0, 0), Value(0, 0), Value(0, 1, 1), Value(0, 1, 1)])
    rng = Random(22)
    for _ in range(50):
        assert sample(f, rng)[0] == 1


def test_sample_weights_shape(mgr):
    f = equality_relation(mgr, 2)
    weights = sample_weights(f)
    assert len(weights) == f.top.num_states
    assert weights[1] == 0  # value-0 state has zero weight
    assert weights[0] > 0


def test_sample_weights_share_one_scale_across_denominators(mgr):
    # 1/2 and 1 have denominator exponents 1 and 0; the weights must be 1:2
    half = Value(1, 0, 1)
    f = from_truth_table(mgr, 0, [half, ONE])
    weights = dict(zip(f.values, sample_weights(f)))
    assert weights[ONE] == 2 * weights[half]


def test_sample_weights_irrational_ratio(mgr):
    root_half = Value(0, 1, 1)  # 1/sqrt(2), denominator exponent 1
    f = from_truth_table(mgr, 0, [root_half, ONE])
    weights = dict(zip(f.values, sample_weights(f)))
    ratio = Fraction(weights[root_half], weights[ONE])
    # the ratio is 1/sqrt(2) up to 128-bit fixed-point rounding
    assert abs(ratio * ratio - Fraction(1, 2)) < Fraction(1, 2**120)


_SQRT2 = Fraction(isqrt(2 << 400), 1 << 200)  # within 2**-200 of sqrt(2)


def _exact(v):
    return (v.a + v.b * _SQRT2) / (1 << v.k)


def _nonnegative_value(rng):
    v = Value(rng.randint(-50, 50), rng.randint(-50, 50), rng.randint(0, 6))
    return -v if v.sign() < 0 else v


def test_sample_weights_proportional_to_exact_weights():
    rng = Random(41)
    tables = [[_nonnegative_value(rng) for _ in range(4)] for _ in range(200)]
    tables += [[Value(0, 0)] * 4, [Value(0, 0), Value(3, 1, 2), Value(0, 0), Value(0, 0)]]
    for values in tables:
        f = from_truth_table(Manager(), 1, values)
        weights = sample_weights(f)
        exact = [_exact(v) * c for v, c in zip(f.values, top_path_counts(f))]
        assert [w == 0 for w in weights] == [x == 0 for x in exact]
        top = max(range(len(exact)), key=exact.__getitem__)
        if exact[top] == 0:
            continue
        for w, x in zip(weights, exact):
            assert abs(Fraction(w, weights[top]) - x / exact[top]) < Fraction(1, 2**100)
