import json

import pytest

from tidd.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_family_hadamard(capsys):
    code, out, _ = run_cli(capsys, ["family", "--kind", "hadamard", "--n", "3"])
    assert code == 0
    header, row = out.strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["states"] == "8"
    assert fields["edges"] == "14"


def test_family_eq_json(capsys):
    code, out, _ = run_cli(
        capsys, ["family", "--kind", "eq", "--n", "4", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert data["states"] == 10
    assert data["total"] == data["nodes"] + data["edges"]


def test_family_hn(capsys):
    code, out, _ = run_cli(capsys, ["family", "--kind", "hn", "--n", "4"])
    assert code == 0
    header, row = out.strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert int(fields["states"]) >= 16


def test_verify_passes(capsys):
    code, out, _ = run_cli(
        capsys, ["verify", "--vars", "8", "--cases", "20", "--seed", "0"]
    )
    assert code == 0
    header, row = out.strip().split("\n")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["passed"] == "20"
    assert fields["failed"] == "0"


def test_verify_exits_1_when_a_case_fails(capsys, monkeypatch):
    monkeypatch.setattr("tidd.oracle.exhaustive_equiv", lambda f, d: False)
    code, out, _ = run_cli(capsys, ["verify", "--vars", "4", "--cases", "3"])
    assert code == 1
    assert out == "vars,cases,seed,passed,failed\n4,3,0,0,3\n"


def test_verify_respects_oracle_cap(capsys):
    code, _, err = run_cli(capsys, ["verify", "--vars", "32", "--cases", "5"])
    assert code == 2
    assert "exceeds" in err


def test_bench_row(capsys):
    code, out, _ = run_cli(
        capsys, ["bench", "--algo", "ghz", "--qubits", "8", "--seed", "0"]
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("algo,qubits,seed,gates,final_nodes")
    fields = dict(zip(header.split(","), row.split(",")))
    assert fields["algo"] == "ghz"
    assert fields["gates"] == "8"
    assert int(fields["max_intermediate"]) >= int(fields["final_total"])


def test_bench_json_types(capsys):
    code, out, _ = run_cli(
        capsys, ["bench", "--algo", "ghz", "--qubits", "8", "--format", "json"]
    )
    assert code == 0
    data = json.loads(out)
    assert list(data) == [
        "algo", "qubits", "seed", "gates", "final_nodes", "final_edges",
        "final_total", "max_intermediate", "wall_seconds",
    ]
    assert data["algo"] == "ghz"
    assert all(type(data[k]) is int for k in list(data)[1:-1])
    assert data["gates"] == 8
    assert type(data["wall_seconds"]) is float


def test_sample_deterministic(capsys):
    argv = ["sample", "--kind", "eq", "--n", "2", "--shots", "50", "--seed", "7"]
    code1, out1, _ = run_cli(capsys, argv)
    code2, out2, _ = run_cli(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().split("\n")
    assert lines[0] == "assignment,count"
    assignments = [line.split(",")[0] for line in lines[1:]]
    assert all(a[0::2] == a[1::2] for a in assignments)
    assert sum(int(line.split(",")[1]) for line in lines[1:]) == 50


def test_sample_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["sample", "--kind", "eq", "--n", "2", "--shots", "10", "--seed", "1",
         "--format", "json"],
    )
    assert code == 0
    data = json.loads(out)
    assert sum(data.values()) == 10


def test_usage_error_exit_code(capsys):
    assert main(["family", "--kind", "nope", "--n", "3"]) == 2
    assert main(["bogus"]) == 2
    assert main(["bench", "--algo", "ghz", "--qubits", "3"]) == 2
    assert main(["verify", "--vars", "4", "--cases", "x"]) == 2


def test_error_reported_to_stderr(capsys):
    code, _, err = run_cli(capsys, ["family", "--kind", "hn", "--n", "3"])
    assert code == 2
    assert "power of two" in err


def test_anti_diagonal_family_capped(capsys):
    code, _, err = run_cli(capsys, ["family", "--kind", "hn", "--n", "16"])
    assert code == 2
    assert "desk-scale" in err


def test_bad_family_parameter(capsys):
    code, _, err = run_cli(capsys, ["family", "--kind", "hadamard", "--n", "0"])
    assert code == 2
    assert err.startswith("error:")


def test_bad_equality_parameter(capsys):
    code, _, err = run_cli(capsys, ["family", "--kind", "eq", "--n", "0"])
    assert code == 2
    assert err.startswith("error:")


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    # only typed tidd errors are usage errors; any other exception is a bug
    def broken(args):
        raise ValueError("internal failure")

    monkeypatch.setattr("tidd.cli._cmd_family", broken)
    with pytest.raises(ValueError, match="internal failure"):
        main(["family", "--kind", "eq", "--n", "2"])


def test_sample_hn(capsys):
    code, out, _ = run_cli(
        capsys, ["sample", "--kind", "hn", "--n", "2", "--shots", "20", "--seed", "3"]
    )
    assert code == 0
    lines = out.strip().split("\n")[1:]
    for line in lines:
        bits = line.split(",")[0]
        # every sampled matrix has zeros on the whole anti-diagonal
        assert bits[1] == "0" and bits[2] == "0"


def test_bench_bv_and_dj(capsys):
    for algo in ("bv", "dj"):
        code, out, _ = run_cli(
            capsys, ["bench", "--algo", algo, "--qubits", "4", "--seed", "1"]
        )
        assert code == 0
        header, row = out.strip().split("\n")
        fields = dict(zip(header.split(","), row.split(",")))
        assert fields["algo"] == algo
        assert int(fields["final_total"]) > 0


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--kind", "eq", "--n", "2", "--shots", "0"],
        ["sample", "--kind", "eq", "--n", "2", "--shots", "-3"],
        ["verify", "--vars", "4", "--cases", "0"],
        ["verify", "--vars", "4", "--cases", "-1"],
    ],
)
def test_count_below_one_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert ">= 1" in err  # the library's count rule, require_at_least
