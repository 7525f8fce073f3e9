"""End-to-end command line behavior through cli.main."""

import json

import pytest

from repunit_toric import cli
from repunit_toric.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "--a", "3", "--b", "2", "--n", "4")
    assert code == 0
    assert "generators: 15 18 24 36" in out
    assert "gcd: 3 (not coprime)" in out
    assert "n/a (generators not coprime)" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "--a", "1", "--b", "3", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["generators"] == [40, 41, 44, 53]
    assert data["gcd"] == 1
    assert data["unique_predicted"] == "yes"


def test_info_missing_flag(capsys):
    code, _, err = run(capsys, "info", "--a", "1", "--b", "3")
    assert code == 2
    assert "error: missing --n" in err


def test_info_invalid_instance(capsys):
    code, _, err = run(capsys, "info", "--a", "0", "--b", "3", "--n", "4")
    assert code == 2
    assert "error:" in err


def test_verify_per_index_fanout(capsys):
    code, out, _ = run(
        capsys, "verify", "prop-gb1", "--a", "1", "--b", "3", "--n", "5", "--all-i"
    )
    assert code == 0
    assert out.count("instance:") == 5
    assert out.count("overall: pass") == 5


def test_verify_claim_flag_and_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--claim", "thm-gb2",
        "--a", "1", "--b", "3", "--n", "4", "--i", "2", "--format", "json-like",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["instance"] == {"a": 1, "b": 3, "n": 4, "i": 2}
    assert report["overall"] == "pass"


def test_verify_defaults_fill_pinned_instance(capsys):
    code, out, _ = run(capsys, "verify", "example-gcd3")
    assert code == 0
    assert "a=3 b=2 n=4" in out
    assert "overall: pass" in out


def test_verify_refusal_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "cor-gb2", "--a", "3", "--b", "2", "--n", "4"
    )
    assert code == 2
    assert "refused" in out


def test_verify_conflicting_claim_names(capsys):
    code, _, err = run(
        capsys, "verify", "lemma2", "--claim", "lemma3", "--a", "1", "--b", "2", "--n", "4"
    )
    assert code == 2
    assert "disagree" in err


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "lemma9", "--a", "1", "--b", "2", "--n", "4")
    assert code == 2
    assert "unknown claim" in err


def test_verify_index_on_plain_claim(capsys):
    code, _, err = run(
        capsys, "verify", "lemma2", "--a", "1", "--b", "2", "--n", "4", "--i", "1"
    )
    assert code == 2
    assert err == "error: claim 'lemma2' does not take an order index\n"
    # --all-i names an order index too; a claim without one refuses it the same way
    code, out, err_all = run(
        capsys, "verify", "lemma2", "--a", "1", "--b", "2", "--n", "4", "--all-i"
    )
    assert (code, out, err_all) == (2, "", err)


def test_groebner_listing(capsys):
    code, out, _ = run(
        capsys, "groebner", "--source", "minors-y", "--order", "prec-1",
        "--a", "1", "--b", "2", "--n", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "source=minors-y order=prec-1 elements=3 minimal=yes reduced=yes"
    assert "x3^3 - x2^2*x4" in lines[1:]


def test_groebner_nonminor_element(capsys):
    code, out, _ = run(
        capsys, "groebner", "--source", "toric-i", "--order", "prec-2",
        "--a", "3", "--b", "3", "--n", "4",
    )
    assert code == 0
    assert "x4^4 - x1*x2^4*x3^2" in out


def test_groebner_order_errors(capsys):
    code, _, err = run(
        capsys, "groebner", "--source", "minors-x", "--order", "example5",
        "--a", "1", "--b", "2", "--n", "4",
    )
    assert code == 2
    assert "example5 order needs n=5" in err

    code, _, err = run(
        capsys, "groebner", "--source", "minors-x",
        "--a", "1", "--b", "2", "--n", "4",
    )
    assert code == 2
    assert "needs --i" in err

    # --i is read only by prec-i; with another order it is a usage error
    for order, n in (("prec-3", "4"), ("example5", "5")):
        code, out, err = run(
            capsys, "groebner", "--source", "minors-x", "--order", order, "--i", "2",
            "--a", "1", "--b", "5", "--n", n,
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            f"error: --i is read only by --order prec-i, not by --order {order}"]


def test_groebner_trace_goes_to_stderr(capsys):
    code, out, err = run(
        capsys, "groebner", "--source", "minors-x", "--order", "prec-1",
        "--a", "3", "--b", "3", "--n", "4", "--trace",
    )
    assert code == 0
    assert "trace:" in err
    assert "trace:" not in out


@pytest.mark.parametrize("command", ["info", "verify", "sweep"])
def test_trace_only_on_engine_commands(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--a", "1", "--b", "3", "--n", "4", "--trace"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err


def test_sweep_table_and_determinism(capsys):
    args = ("sweep", "--a", "3", "--b", "2", "--n", "4..5")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0].split() == ["a", "b", "n", "gcd", "mingens", "unique", "a<b-1", "agree"]
    assert lines[1].split() == ["3", "2", "4", "3", "4", "no", "no", "-"]
    assert lines[2].split() == ["3", "2", "5", "1", "10", "no", "no", "yes"]


def test_sweep_json_rows(capsys):
    code, out, _ = run(
        capsys, "sweep", "--a", "1", "--b", "3", "--n", "4", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)["rows"]
    assert rows == [{
        "a": 1, "b": 3, "n": 4, "gcd": 1,
        "mingens": 6, "unique": True, "predicate": True, "agree": "yes",
    }]


def test_sweep_frontier_row(capsys):
    # gcd 3, so the theorem predicts nothing here; an engine-free count over
    # the Apery set of the semigroup also gives 99 minimal generators
    code, out, _ = run(capsys, "sweep", "--a", "6", "--b", "4", "--n", "9", "--format", "json")
    assert code == 0
    (row,) = json.loads(out)["rows"]
    assert (row["gcd"], row["mingens"], row["unique"], row["agree"]) == (3, 99, False, "-")


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--a", "x..2", "--b", "2", "--n", "4")
    assert code == 2
    assert "wants K or LO..HI" in err

    code, out, err = run(capsys, "sweep", "--a", "3..1", "--b", "2", "--n", "4")
    assert code == 2
    assert out == ""
    assert err == "error: --a range '3..1' is empty\n"


def test_exponent_overflow_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "groebner", "--source", "minors-x", "--order", "prec-1",
        "--a", "3000000000", "--b", "2", "--n", "4",
    )
    assert code == 2
    assert out == ""
    assert err == "error: exponent 3000000003 exceeds 2147483647\n"


def test_betti_counts(capsys):
    code, out, _ = run(
        capsys, "betti", "--source", "toric-i", "--a", "3", "--b", "2", "--n", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "source=toric-i degrees=4 total=4"
    assert lines[1] == "degree 36: 1"

    code, out, _ = run(
        capsys, "betti", "--source", "minors-y", "--a", "1", "--b", "3", "--n", "4",
        "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["total"] == 3
    assert {"degree": [4, 4], "count": 1} in data["degrees"]


def test_unique_answers(capsys):
    code, out, _ = run(
        capsys, "unique", "--source", "minors-x", "--a", "1", "--b", "3", "--n", "4"
    )
    assert code == 0
    assert "unique minimal binomial system: yes" in out

    code, out, _ = run(
        capsys, "unique", "--source", "toric-i", "--a", "3", "--b", "2", "--n", "4"
    )
    assert code == 0
    assert "unique minimal binomial system: no" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "example-n4-minors", "--format", "json", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    (report,) = json.loads(target.read_text())
    assert report["overall"] == "pass"


@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_out_unwritable_is_a_usage_error(tmp_path, capsys, where):
    target = tmp_path / "missing" / "x" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, "info", "--a", "1", "--b", "2", "--n", "4", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {target}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "exc", [ArithmeticError("integer division by zero"), AssertionError("self-check failed")],
    ids=["ArithmeticError", "AssertionError"],
)
def test_internal_error_exits_3(monkeypatch, capsys, exc):
    def broken(args):
        raise exc

    monkeypatch.setitem(cli._HANDLERS, "info", broken)
    code, out, err = run(capsys, "info", "--a", "1", "--b", "2", "--n", "4")
    assert code == 3
    assert out == ""
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"
