"""Golden digests of canonical outputs.

Each case renders a deterministic output as text and compares its sha256
with a digest pinned from an earlier, independently checked version of the
library.  A faster kernel must leave every one unchanged:

* circuits: the ``dump`` of the final state plus the ``tidd bench`` CSV row
  without its timing field, ``wall_seconds``;
* gates: the ``dump`` of every gate matrix of a circuit, built in circuit
  order on one ``Manager``;
* draws: the assignments ``sample`` draws from a family at a fixed seed, and
  the histogram ``measure_distribution`` returns for a circuit's state.

After a circuit run on a fresh ``Manager``, its ``snapshot`` and the digest
of the sorted ``dump`` of every layer it interned are pinned too, so a
change to what a run interns or caches shows.
"""

import hashlib
from random import Random

import pytest

from tidd import Manager, Tidd, anti_diagonal, dump, equality_relation, sample
from tidd.bench import (
    bv_circuit,
    bv_secret,
    gate_matrix,
    ghz_circuit,
    measure_distribution,
    metrics_row,
    run_benchmark,
)

from helpers import benchmark_run

GOLDEN = {
    "ghz-8-0": "aa6a63d1a652ff114e4ec0308aa7d9b1a34550ef86eee8287d9e5222e43599d2",
    "ghz-16-0": "161478cdbe73cb633dfdcf092e3ac4ff0cadd7e8133358012b40a70e87d3af13",
    "ghz-32-0": "7b8f113be5d8f8b453f21fb69f98c632cbf7f83a90377ce927a0f6fb9ed44456",
    "ghz-64-0": "2886db72d2a280beac65cbf4499f310a58d48bc2cf67bf6927cb9c12e209eed7",
    "ghz-128-0": "7e6d048ad509249ef5195ab056dcccb81df73be00e739a16e5c3307171a0d1ea",
    "ghz-512-0": "ce844ee57a85ce7fba08ec92a81989d4de2cd9a0e87aace42294b4dd8b65c431",
    "bv-8-0": "a532fb2e870cae7caff5310270c602089476b71a247c5142c50bc1ffcd73707b",
    "bv-8-1": "f6441fbbb4e7fee4b7cc434dead7d2b95dfb5c65a0da388b2d4408a9d7757087",
    "bv-8-2": "2d5b6938aebc0e9b054802edf41fa8ecd8b523101cd173e89e74b3b1c3cdc859",
    "bv-8-3": "c399804be4a2457131df862a39fc49bd13bd847daeb26f11f45deb079e9d875f",
    "bv-16-0": "9269e1afe18196ceefdd0eb77fb0ac2be83a6b39deccdb05401ce8ea077d430f",
    "bv-16-1": "ac74e6c9c30eebda3229d8de7931ee3e4b0f9600460677a62af8e9c03cd14479",
    "bv-16-2": "47dfa14d85641a4bab837cd251779a56a9bbbcec3ecf21c30429ac59933f940a",
    "bv-16-3": "e426374e11cea481641ba9de47e71a432ee9299b8bc389deba6b37eccbf9cdce",
    "bv-32-0": "a20268fe0145a483232783ae9dbad1db7aa8cb83e5ebae45b9811a34255c17ab",
    "bv-32-1": "3a06bf33c861b7f0bef63274e8f66b3594c279573143513756d944b098d4c572",
    "bv-32-2": "eb97f2fab5151c1ee218df066e8c253b3b7385d2f1c54464292bb7240174f519",
    "bv-64-0": "60f43379491ce15b8a7c4862d8eada9516f89a1d828d89c39ec3524346f2af7d",
    "dj-8-0": "3d2f9cef3f07ff35df25363fb075e334f36ee02c9f58e11bc7596c28f4a503e7",
    "dj-8-1": "fc93e5680e8532ae70107f258197bdb18756e5464ae3a3b8663fc678e3b23ede",
    "dj-8-2": "4fde9e1ecf42f2917d048f55023b47c57257cb8f8f6d0857b6ccaa6189d0d3d2",
    "dj-8-3": "b022e788789d3bfe42656a6327380010354302d0d906547a7ce111c6879fc9cd",
    "dj-16-0": "9cd6ec2bac9e58c14c18c98e2eea123aa098de19bcdc7bb0fff8a9ea9e9a5c89",
    "dj-16-1": "b088454dbc539769ef1282c41ba104a2081fefe620cdffeaa5aa6b8be2ec0ee4",
    "dj-16-2": "32be0b0aaecbebeb14527bf48e910de582bf125910de80bf80f08c7832586fb6",
    "dj-16-3": "7329a7c92742e1bd9341fa6e02dc18cbc865e93ac9d8fc02441a04db2b4d2b93",
    "dj-32-0": "ab60c31b5b96c97cc8d063f29ba4a56ecf186aa9de34ac4d7c0788cc38a1dc94",
    "gates-ghz-64-0": "7c5569f055f98c953aa2866220854a7a47c83cf5640492cd92f6a2bd616cf9db",
    "gates-bv-16-0": "8976bb6a837d64627f0d1b1dd2a773dc76205a9ee019499cb9f4e29a14ff32ba",
    "sample-eq-1": "f4cdb8ab95c02ebfcd45b2329a950433e5972688b8ed5a8d07b2be3897e3c443",
    "sample-eq-2": "57def2bb48c201ddb98ea5fba4e9f5f12213f692d3555cafdc2958b1c2113deb",
    "sample-eq-3": "237df7904a8d48a14f67e323502a4f766aee281cafc7954eda6dfa84aff35112",
    "sample-eq-4": "0b860725498c24ef6ca34977ee0c537a17d3cd0323a39addc6eb583922b4055c",
    "sample-hn-2": "182bf4f85145e161b48042835c1d6eb6a7f9594d62096bc05699f554582a1b94",
    "sample-hn-4": "4d250febdf0b22beda70fac86c0fcb7ace570eafb485ac8326dd76371ba786d1",
    "measure-ghz-16": "c8adce82698bcfa50fc1c27616a7c5785c9afbedf47e566bccb24b5f019c7826",
    "measure-ghz-64": "9c23340f526c96843e376fd53647adf21fb6f1f32a4e96b4f7b9648cb52bbd85",
}

SEED = 20260301
SHOTS = 200


def circuit_text(algo: str, qubits: int, seed: int) -> str:
    state, metrics = benchmark_run(algo, qubits, seed)
    row = list(metrics_row(algo, qubits, seed, metrics).values())[:-1]  # drop wall_seconds
    return dump(state.t.t) + "\n" + ",".join(str(x) for x in row)


def sample_text(kind: str, n: int) -> str:
    mgr = Manager()
    f = equality_relation(mgr, n) if kind == "eq" else anti_diagonal(mgr, n)
    rng = Random(SEED)
    return repr([sample(f, rng) for _ in range(SHOTS)])


def measure_text(qubits: int) -> str:
    state, _ = benchmark_run("ghz", qubits, 0)
    return repr(sorted(measure_distribution(state, SHOTS, Random(SEED)).items()))


def gates_text(algo: str, qubits: int, seed: int) -> str:
    mgr = Manager()
    if algo == "ghz":
        gates = ghz_circuit(qubits)
    else:
        gates = bv_circuit(qubits, bv_secret(qubits, seed))
    return "\n".join(dump(gate_matrix(mgr, g).t) for g in gates)


def render(name: str) -> str:
    parts = name.split("-")
    if parts[0] == "gates":
        return gates_text(parts[1], int(parts[2]), int(parts[3]))
    if parts[0] == "sample":
        return sample_text(parts[1], int(parts[2]))
    if parts[0] == "measure":
        return measure_text(int(parts[2]))
    return circuit_text(parts[0], int(parts[1]), int(parts[2]))


def digest(name: str) -> str:
    return hashlib.sha256(render(name).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_matches_golden_digest(name):
    assert digest(name) == GOLDEN[name]


INTERNED = {
    "ghz-64-0": (
        {
            "_layers": {"size": 976},
            "pair_cache": {"size": 524, "pair_product_hits": 272, "pair_product_misses": 524},
            "apply_cache": {"size": 63, "apply_hits": 0, "apply_misses": 63},
            "reduce_cache": {"size": 245, "reduce_hits": 132, "reduce_misses": 245},
            "kron_cache": {"size": 210, "kronecker_hits": 0, "kronecker_misses": 210},
            "matmul_cache": {"size": 190, "matmul_hits": 0, "matmul_misses": 64,
                             "matmul_stack_hits": 62, "matmul_stack_misses": 126},
            "triple_sums": {"size": 12},
            "span_cache": {"size": 216, "span_hits": 332, "span_misses": 216},
            "draw_plan_cache": {"size": 0, "draw_plan_hits": 0, "draw_plan_misses": 0},
        },
        "de0170aceda16a1b2e3004b40f2c8fd4cf31ba144975f53d3a3b5226f5c5a1b8",
    ),
    "bv-16-0": (
        {
            "_layers": {"size": 297},
            "pair_cache": {"size": 74, "pair_product_hits": 59, "pair_product_misses": 74},
            "apply_cache": {"size": 0, "apply_hits": 0, "apply_misses": 0},
            "reduce_cache": {"size": 91, "reduce_hits": 44, "reduce_misses": 91},
            "kron_cache": {"size": 60, "kronecker_hits": 0, "kronecker_misses": 60},
            "matmul_cache": {"size": 137, "matmul_hits": 0, "matmul_misses": 42,
                             "matmul_stack_hits": 38, "matmul_stack_misses": 95},
            "triple_sums": {"size": 147},
            "span_cache": {"size": 64, "span_hits": 99, "span_misses": 64},
            "draw_plan_cache": {"size": 0, "draw_plan_hits": 0, "draw_plan_misses": 0},
        },
        "986b718055963d7d59b8d1d9cf5aa31ce882c86c13e8eff3af20934ac3d27594",
    ),
}


@pytest.mark.parametrize("name", sorted(INTERNED))
def test_run_interns_and_caches_as_pinned(name):
    algo, qubits, seed = name.split("-")
    mgr = Manager()
    run_benchmark(mgr, algo, int(qubits), int(seed))
    snapshot, layers_digest = INTERNED[name]
    assert mgr.snapshot() == snapshot
    layers = sorted(dump(Tidd(layer, ())) for layer in mgr._layers.values())
    assert hashlib.sha256("\n\n".join(layers).encode()).hexdigest() == layers_digest
