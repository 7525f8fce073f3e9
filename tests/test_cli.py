"""End-to-end command line behavior through cli.main."""

import argparse
import hashlib
import inspect
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repunit_toric import cli, families, fibers, groebner, verify
from repunit_toric.binomials import Binomial, pack
from repunit_toric.cli import main
from repunit_toric.orders import build_order_i
from repunit_toric.semigroup import InstanceParams, generators
from repunit_toric.verify import CLAIMS

SRC = Path(__file__).resolve().parent.parent / "src"


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


def test_info_predicts_nothing_at_n3(capsys):
    code, out, _ = run(capsys, "info", "--a", "1", "--b", "2", "--n", "3")
    assert code == 0
    assert "generators: 7 8 10" in out
    assert "gcd: 1 (coprime)" in out
    assert "unique minimal system predicted (a < b-1): n/a (n <= 3)" in out.splitlines()


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
        capsys, "verify", "--claim", "prop-gb1", "--a", "1", "--b", "3", "--n", "5"
    )
    assert code == 0
    assert out.count("instance:") == 5
    assert out.count("overall: pass") == 5


def test_verify_claim_flag_and_json(capsys):
    code, out, _ = run(
        capsys, "verify", "--claim", "thm-gb2",
        "--a", "1", "--b", "3", "--n", "4", "--i", "2", "--format", "json",
    )
    assert code == 0
    (report,) = json.loads(out)
    assert report["instance"] == {"a": 1, "b": 3, "n": 4, "i": 2}
    assert report["overall"] == "pass"


def test_verify_defaults_fill_pinned_instance(capsys):
    code, out, _ = run(capsys, "verify", "--claim", "example-gcd3")
    assert code == 0
    assert "a=3 b=2 n=4" in out
    assert "overall: pass" in out


def test_verify_refusal_exit_code(capsys):
    code, out, _ = run(
        capsys, "verify", "--claim", "cor-gb2", "--a", "3", "--b", "2", "--n", "4"
    )
    assert code == 2
    assert "refused" in out


def test_verify_unknown_claim(capsys):
    code, _, err = run(capsys, "verify", "--claim", "lemma9", "--a", "1", "--b", "2", "--n", "4")
    assert code == 2
    assert "unknown claim" in err
    # no claim at all: --claim is required
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--a", "1", "--b", "2", "--n", "4"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: the following arguments are required: --claim\n")


def test_verify_failed_check_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(verify, "homogeneity_identity_holds", lambda p, j, k: (j, k) != (2, 3))
    code, out, err = run(capsys, "verify", "--claim", "lemma2", "--a", "1", "--b", "2", "--n", "4")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[1].startswith("  [fail] lemma2: weight identity: fails at (j, k) = [(2, 3)] (")
    assert lines[-1] == "overall: fail"


def test_verify_index_on_plain_claim(capsys):
    code, _, err = run(
        capsys, "verify", "--claim", "lemma2", "--a", "1", "--b", "2", "--n", "4", "--i", "1"
    )
    assert code == 2
    assert err == "error: claim 'lemma2' does not take an order index\n"


def test_groebner_listing(capsys):
    code, out, _ = run(
        capsys, "groebner", "--source", "minors-y", "--order", "prec-1",
        "--a", "1", "--b", "2", "--n", "4",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "source=minors-y order=prec-1 elements=3 minimal=yes reduced=yes"
    assert "x3^3 - x2^2*x4" in lines[1:]


def test_groebner_header_is_checked_on_the_printed_basis(capsys, monkeypatch):
    # The structured closed family at (3,3,4), i = 2 is minimal but not
    # reduced (example-a3b3); printed as the basis, the header says so and
    # the command fails.
    p = InstanceParams(3, 3, 4)
    order = build_order_i(generators(p), 2)
    fam = families.structured_closed_family(p, 2)
    basis = groebner.GroebnerBasis(tuple((pack(g.plus), pack(g.minus)) for g in fam), order)
    monkeypatch.setattr(cli, "groebner_reduced", lambda gens, order, trace: basis)
    argv = ("groebner", "--source", "minors-x", "--a", "3", "--b", "3", "--n", "4",
            "--order", "prec-2")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out.splitlines()[0] == (
        f"source=minors-x order=prec-2 elements={len(fam)} minimal=yes reduced=no")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert (data["minimal"], data["reduced"]) == (True, False)
    assert '"reduced": false' in out

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

    for order in ("prec-x", "prec-i"):
        code, out, err = run(
            capsys, "groebner", "--source", "minors-x", "--order", order,
            "--a", "1", "--b", "2", "--n", "4",
        )
        assert (code, out) == (2, "")
        assert err == f"error: unknown order {order!r}; use prec-<k> or example5\n"


def test_groebner_trace_goes_to_stderr(capsys):
    code, out, err = run(
        capsys, "groebner", "--source", "minors-x", "--order", "prec-1",
        "--a", "3", "--b", "3", "--n", "4", "--trace",
    )
    assert code == 0
    assert "trace:" in err
    assert "trace:" not in out


@pytest.mark.parametrize("source, skips", [("minors-x", False), ("toric-i", True)])
def test_groebner_trace_lists_common_factor_skips_on_toric_sources(capsys, source, skips):
    # only the toric sources' elimination run skips pairs whose sides
    # share a variable
    code, _, err = run(
        capsys, "groebner", "--source", source, "--order", "prec-1",
        "--a", "3", "--b", "3", "--n", "4", "--trace",
    )
    assert code == 0
    common = [s for s in err.splitlines() if s.endswith(" skipped: common factor")]
    assert bool(common) == skips
    assert all(s.startswith("trace: pair (") for s in common)


def test_toric_i_trace_names_both_t_and_the_relation(capsys):
    # the weights 15, 16, 18, 22 are 1 * (0, 1, 3, 7) + 15 * ones, so the
    # run eliminates t_1, with t_2 = x1, and the relation t_1^15 - x1
    code, _, err = run(
        capsys, "groebner", "--source", "toric-i", "--order", "prec-1",
        "--a", "1", "--b", "2", "--n", "4", "--trace",
    )
    assert code == 0
    assert err.splitlines()[0] == (
        "trace: elimination run over x1..x5, where x5 = t_1, t_2 = x1; "
        "input 3 is the relation x5^15 - x1")


@pytest.mark.parametrize("command", [
    ("info",), ("verify", "--claim", "lemma2"), ("sweep",),
    ("betti", "--source", "toric-i"), ("unique", "--source", "toric-i"),
], ids=["info", "verify", "sweep", "betti", "unique"])
def test_trace_only_on_groebner(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--a", "1", "--b", "3", "--n", "4", "--trace"])
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


def test_sweep_rows_agree_with_the_toric_i_oracle(capsys):
    # each row's count and verdict, instance by instance, against betti and
    # unique on the weight toric ideal; the box holds the gcd > 1 rows
    # (2,3,4) and (3,2,4)
    code, out, _ = run(capsys, "sweep", "--a", "1..4", "--b", "2..4", "--n", "4..5",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 24
    assert {(2, 3, 4), (3, 2, 4)} <= {(r["a"], r["b"], r["n"]) for r in rows if r["gcd"] > 1}
    for row in rows:
        flags = ("--source", "toric-i", "--a", str(row["a"]), "--b", str(row["b"]),
                 "--n", str(row["n"]), "--format", "json")
        code, out, _ = run(capsys, "betti", *flags)
        assert code == 0 and json.loads(out)["total"] == row["mingens"], row
        code, out, _ = run(capsys, "unique", *flags)
        assert code == 0 and json.loads(out)["unique"] == row["unique"], row


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_sweep_exits_1_on_a_disagreeing_row(monkeypatch, capsys, fmt):
    real = cli._sweep_row

    def one_no(params):
        row = real(params)
        if params.a == 2:
            row["agree"] = "NO"
        return row

    monkeypatch.setattr(cli, "_sweep_row", one_no)
    code, out, err = run(capsys, "sweep", "--a", "1..3", "--b", "4", "--n", "4", "--format", fmt)
    assert code == 1
    assert err == ""
    if fmt == "json":
        assert [r["agree"] for r in json.loads(out)["rows"]] == ["yes", "NO", "yes"]
    else:
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[2].split() == ["2", "4", "4", "1", "6", "yes", "yes", "NO"]


def test_sweep_bad_range(capsys):
    code, _, err = run(capsys, "sweep", "--a", "x..2", "--b", "2", "--n", "4")
    assert code == 2
    assert "wants K or LO..HI" in err

    code, out, err = run(capsys, "sweep", "--a", "3..1", "--b", "2", "--n", "4")
    assert code == 2
    assert out == ""
    assert err == "error: --a range '3..1' is empty\n"

    code, out, err = run(capsys, "sweep", "--a", "1", "--b", "2")
    assert (code, out, err) == (2, "", "error: missing --n (K or LO..HI)\n")


def test_exponent_overflow_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "groebner", "--source", "minors-x", "--order", "prec-1",
        "--a", "3000000000", "--b", "2", "--n", "4",
    )
    assert code == 2
    assert out == ""
    assert err == "error: exponent 3000000003 exceeds 2147483647\n"
    # the oracle's minor words are checked as the Binomial minors are
    for command in ("betti", "unique"):
        outcome = run(capsys, command, "--source", "minors-x",
                      "--a", "3000000000", "--b", "2", "--n", "4")
        assert outcome == (2, "", "error: exponent 3000000003 exceeds 2147483647\n")
    outcome = run(capsys, "unique", "--source", "minors-y",
                  "--a", "1", "--b", "2147483647", "--n", "4")
    assert outcome == (2, "", "error: exponent 2147483648 exceeds 2147483647\n")


def test_structured_claims_past_the_exponent_limit_raise_as_their_minors(capsys):
    # prop-gb1 and thm-gb2 build their bases from the chain's minors, so
    # they stop on the minors' own first exponent past the limit:
    # x1^(b+2) for the closed chain, x2^(b+1) for the open one
    for claim, exponent in (("thm-gb2", 2147483649), ("prop-gb1", 2147483648)):
        outcome = run(capsys, "verify", "--claim", claim,
                      "--a", "1", "--b", "2147483647", "--n", "4", "--i", "1")
        assert outcome == (2, "", f"error: exponent {exponent} exceeds 2147483647\n")


def test_minor_oracle_builds_no_binomial(monkeypatch, capsys):
    # betti and unique on the minor sources hand packed words to the fiber
    # search; the counter is seen to work on the Binomial entry point
    built = []
    check = Binomial.__post_init__

    def counted(self):
        built.append(self)
        check(self)

    monkeypatch.setattr(Binomial, "__post_init__", counted)
    for command, source in (("betti", "minors-x"), ("unique", "minors-y")):
        code, out, err = run(capsys, command, "--source", source,
                             "--a", "2", "--b", "3", "--n", "6")
        assert (code, err) == (0, "") and out
    assert built == []
    families.minors_open_chain(InstanceParams(2, 3, 6))
    assert len(built) == 10
    # unique reads each split's shape alone: no fiber monomial is unpacked;
    # the counter is seen to work where forced pairs are listed
    unpacked = []
    unpack = fibers.unpack

    def counted_unpack(x, nvars):
        unpacked.append(x)
        return unpack(x, nvars)

    monkeypatch.setattr(fibers, "unpack", counted_unpack)
    for a, b, answer in ((1, 3, "yes"), (3, 2, "no")):  # unique since a < b - 1, and not
        code, out, err = run(capsys, "unique", "--source", "minors-x",
                             "--a", str(a), "--b", str(b), "--n", "6")
        assert (code, err) == (0, "") and out.endswith(f": {answer}\n")
    assert unpacked == []
    words = families.minor_words(InstanceParams(1, 3, 6), True)
    assert len(fibers.forced_generators(fibers.word_splits(words, 6))) == 15
    assert len(unpacked) == 2 * 15


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
        capsys, "verify", "--claim", "example-n4-minors", "--format", "json", "--out", str(target)
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


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    # verify reports each check's time; only the timings may differ
    return code, re.sub(r"\(\d+ ms\)", "(N ms)", captured.out), captured.err


def test_parser_is_built_once_and_reused(monkeypatch, capsys):
    # Each call through the process-wide parser matches the same call on a
    # freshly built one, whatever the calls before it parsed or rejected.
    calls = [
        ("verify", "--claim", "prop-gb1", "--a", "1", "--b", "3", "--n", "5", "--i", "2"),
        ("verify", "--claim", "lemma2", "--a", "1", "--b", "2", "--n", "4", "--i", "1"),
        ("verify", "--claim", "prop-gb1", "--a", "1", "--b", "3", "--n", "4", "--format", "xml"),
        ("info", "--a", "3", "--b", "2", "--n", "4"),
        ("sweep", "--a", "1..2", "--b", "2..3", "--n", "4", "--format", "json"),
        ("betti", "--source", "minors-x", "--a", "1", "--b", "2", "--n", "5"),
        ("betti", "--source", "toric-i", "--a", "3", "--b", "2", "--n", "4"),
        ("unique", "--source", "minors-x", "--a", "1", "--b", "3", "--n", "4"),
        ("unique", "--source", "toric-i", "--a", "3", "--b", "2", "--n", "4"),
    ]
    fresh = cli.build_parser.__wrapped__
    cli.build_parser.cache_clear()
    codes = []
    for argv in calls:
        reused = _outcome(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", fresh)
            assert _outcome(capsys, argv) == reused, argv
        codes.append(reused[0])
    assert codes == [0, 2, 2, 0, 0, 0, 0, 0, 0]
    assert cli.build_parser.cache_info().misses == 1


def _json_timings_normalised(text):
    # verify's JSON reports each check's time as "ms" and sums them per check under "timing"
    return re.sub(r'"ms": \d+|"timing": \{[^}]*\}',
                  lambda m: re.sub(r": \d+", ": N", m.group()), text)


OUT_CALLS = {
    "info": ("info", "--a", "1", "--b", "3", "--n", "4"),
    "verify": ("verify", "--claim", "prop-gb1", "--a", "1", "--b", "3", "--n", "4", "--i", "2"),
    "verify-refused": ("verify", "--claim", "cor-gb2", "--a", "3", "--b", "2", "--n", "4"),
    "sweep": ("sweep", "--a", "1..2", "--b", "3", "--n", "4"),
    "groebner": ("groebner", "--source", "minors-y", "--order", "prec-1",
                 "--a", "1", "--b", "2", "--n", "4"),
    "betti": ("betti", "--source", "toric-i", "--a", "3", "--b", "2", "--n", "4"),
    "unique": ("unique", "--source", "minors-x", "--a", "1", "--b", "3", "--n", "4"),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", OUT_CALLS.values(), ids=OUT_CALLS)
def test_out_file_holds_exactly_stdout(tmp_path, capsys, argv, fmt):
    # --out and stdout are one write path: the file gets what stdout would, stdout nothing
    argv = (*argv, "--format", fmt)
    target = tmp_path / "out.txt"
    code, out, err = _outcome(capsys, argv)
    assert out
    assert _outcome(capsys, (*argv, "--out", str(target))) == (code, "", err)
    written = re.sub(r"\(\d+ ms\)", "(N ms)", target.read_text(encoding="utf-8"))
    assert _json_timings_normalised(written) == _json_timings_normalised(out)


ONE_PARSE_CALLS = [
    *OUT_CALLS.values(),
    ("verify", "--claim", "thm-gb2", "--i", "3", "--a", "1", "--b", "3", "--n", "7",
     "--format", "json"),
    ("betti", "--source", "minors-y", "--a", "2", "--b", "3", "--n", "6", "--format", "json"),
]


@pytest.mark.parametrize("argv", ONE_PARSE_CALLS, ids=[*OUT_CALLS, "certify", "oracle"])
def test_a_subcommand_call_is_parsed_once(monkeypatch, capsys, argv):
    # main hands everything after the subcommand's name to that subcommand's
    # parser alone, not through the full parser, which would parse twice
    real = argparse.ArgumentParser.parse_known_args
    parses = []

    def counted(self, *args, **kwargs):
        parses.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert main(list(argv)) in (0, 2)
    capsys.readouterr()
    assert parses == [f"repunit-toric {argv[0]}"]


@pytest.mark.parametrize("argv", [
    ("verify", "--claim", "prop-gb1", "--a", "1", "--b", "3", "--n", "5"),
    ("betti", "--source", "minors-x", "--a", "2", "--b", "3", "--n", "6"),
    ("sweep", "--a", "1..2", "--b", "2..3", "--n", "4..5"),
], ids=["verify", "betti", "sweep"])
def test_json_output_builds_no_text_view(monkeypatch, capsys, argv):
    # --format json renders the payload alone; the text view is never built
    def forbidden(*args):
        raise AssertionError("text view built for --format json")

    for builder in ("render_text", "_betti_text", "_sweep_text"):
        monkeypatch.setattr(cli, builder, forbidden)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)


@pytest.mark.parametrize("argv", [
    (),
    ("--help",),
    ("frobnicate", "--a", "1"),
    ("betti", "--help"),
    ("betti", "--a", "1", "--b", "2", "--n", "4"),
    ("info", "--a", "1", "--b", "2", "--n", "4", "--format", "xml"),
    ("info", "--a", "1", "--b", "2", "--n", "4", "extra"),
    ("info", "--a", "1", "--b", "2", "--n", "4", "--trace"),
    ("verify", "lemma2", "--a", "1", "--b", "2", "--n", "4"),
    ("verify", "--claim", "prop-gb1", "--a", "1", "--b", "3", "--n", "4", "--all-i"),
    ("info", "--a", "1", "--b", "2", "--n", "4", "--format", "json-like"),
    ("groebner", "--source", "minors-x", "--a", "1", "--b", "2", "--n", "4", "--i", "2"),
    ("betti", "--source", "toric-i", "--a", "1", "--b", "2", "--n", "4", "--trace"),
    ("unique", "--source", "toric-i", "--a", "1", "--b", "2", "--n", "4", "--trace"),
], ids=["none", "help", "unknown-command", "betti-help", "missing-source", "bad-format",
        "extra-argument", "info-trace", "positional-claim", "all-i", "json-like",
        "groebner-i-without-order", "betti-trace", "unique-trace"])
def test_help_and_usage_errors_read_as_the_full_parser_writes_them(capsys, argv):
    def outcome(parse):
        with pytest.raises(SystemExit) as exc:
            parse(list(argv))
        captured = capsys.readouterr()
        return exc.value.code, captured.out, captured.err

    expected = outcome(cli.build_parser().parse_args)
    assert outcome(main) == expected
    assert expected[0] == (0 if "--help" in argv else 2)


def test_json_renderer_matches_json_dumps():
    # main renders --format json with render_json, not json.dumps(indent=2):
    # the same bytes on every command's payload and on values that try the
    # string escapes, nested empties, bools beside ints and the fallback
    argvs = [*OUT_CALLS.values(),
             ("verify", "--claim", "thm-gb2", "--a", "1", "--b", "3", "--n", "5"),
             ("sweep", "--a", "1..3", "--b", "2..4", "--n", "4..5"),
             ("betti", "--source", "minors-y", "--a", "2", "--b", "3", "--n", "5")]
    payloads = []
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        payloads.append(cli._HANDLERS[args.command](args)[1])
    payloads += [
        'quote " backslash \\ slash / tab \t newline \n nul \x00 del \x7f',
        "caf\u00e9 \u2028 \U0001f600 \ud800",
        {"": [], "a": {}, "b": [[], {}, [[]], {"c": {}}], "d": [True, 1, False, 0, None, -7]},
        [True, False, None, 0, 1, 10**30, -1],
        {"k": (1, "two", [3]), "f": [1.5, -0.0, 1e300], "t": ()},
        {1: "int key", "s": "str key"},
        [], {}, "", 0, True, None,
    ]
    for x in payloads:
        assert cli.render_json(x) == json.dumps(x, indent=2), x


def test_verify_output_digest_is_pinned(capsys):
    # Every claim at a 1..3, b 1..4, n 2..6, in text and json, with no index
    # and --i 1: 2,400 calls whose stdout, stderr and exit code, timings
    # normalised, hash to one pinned digest.
    digest = hashlib.sha256()
    for claim in sorted(CLAIMS):
        for a, b, n in itertools.product(range(1, 4), range(1, 5), range(2, 7)):
            for fmt in ("text", "json"):
                for index in ((), ("--i", "1")):
                    argv = ["verify", "--claim", claim, "--a", str(a), "--b", str(b),
                            "--n", str(n), "--format", fmt, *index]
                    code, out, err = _outcome(capsys, argv)
                    outcome = (argv, _json_timings_normalised(out), err, code)
                    digest.update(repr(outcome).encode())
    assert digest.hexdigest() == (
        "f92c7cfd29ea33223e7ea6dfef34445226b3b45e8c3a2970994cdc36a17e52f6")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [OUT_CALLS["info"], OUT_CALLS["sweep"], OUT_CALLS["verify"]],
                         ids=["info", "sweep", "verify"])
def test_closed_stdout_is_a_write_error(argv, unbuffered):
    # stdout is a pipe nobody reads: one error line, exit 2, and nothing more
    # on stderr when the interpreter flushes its streams at exit
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "repunit_toric.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, b"error: cannot write stdout: Broken pipe\n")


def _module_functions(mod):
    return [fn for fn in vars(mod).values()
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__]


def _forbid(monkeypatch, functions):
    """Rebind every repunit_toric name of each function to one that records and raises."""
    called = []

    def forbidden(fn):
        def raiser(*args, **kwargs):
            called.append(f"{fn.__module__}.{fn.__name__}")
            raise AssertionError(f"{fn.__name__} called")
        return raiser

    stand_ins = {id(fn): forbidden(fn) for fn in functions}
    for name, mod in list(sys.modules.items()):
        if name == "repunit_toric" or name.startswith("repunit_toric."):
            for attr, value in list(vars(mod).items()):
                if id(value) in stand_ins:
                    monkeypatch.setattr(mod, attr, stand_ins[id(value)])
    return called


# The layers each command must bypass: the benchmark's workloads are
# chosen for these, and a call into one shows as a broken prediction there.
BYPASSES = [
    (("sweep", "--a", "1..3", "--b", "2", "--n", "4..5"),
     lambda: [groebner.is_groebner_basis, groebner.saturate_torus]),
    *[(("verify", "--claim", claim, "--i", "2", "--a", "1", "--b", "3", "--n", "5"),
       lambda: [families.toric_ideal, groebner.saturate_torus, *_module_functions(fibers)])
      for claim in ("prop-gb1", "thm-gb2")],
    *[((command, "--source", source, "--a", "3", "--b", "2", "--n", "5"),
       lambda: _module_functions(groebner))
      for command, source in (("betti", "minors-x"), ("betti", "minors-y"),
                              ("unique", "minors-x"), ("unique", "minors-y"))],
]


@pytest.mark.parametrize("argv,functions", BYPASSES, ids=[" ".join(a[:3]) for a, _ in BYPASSES])
def test_commands_bypass_the_predicted_idle_layers(monkeypatch, capsys, argv, functions):
    called = _forbid(monkeypatch, functions())
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, called, err) == (0, [], "")
    if argv[0] == "sweep":
        for row in json.loads(out)["rows"]:
            assert list(row) == ["a", "b", "n", "gcd", "mingens", "unique", "predicate", "agree"]


def _engine_calls():
    # sweep; betti and unique on every source; groebner on every source under
    # every prec-k order and example5
    yield ("sweep", "--a", "1..4", "--b", "1..4", "--n", "2..6")
    for a, b, n in itertools.product(range(1, 4), range(1, 5), range(2, 7)):
        for command, source in itertools.product(("betti", "unique"), cli.SOURCES):
            yield (command, "--source", source, "--a", str(a), "--b", str(b), "--n", str(n))
    for a, b, n in itertools.product(range(1, 4), range(1, 4), range(2, 6)):
        orders = [f"prec-{k}" for k in range(1, n + 1)] + ["example5"] * (n == 5)
        for source, order in itertools.product(cli.SOURCES, orders):
            yield ("groebner", "--source", source, "--order", order,
                   "--a", str(a), "--b", str(b), "--n", str(n))


def _trace_calls():
    # groebner --trace on both toric sources: the engine's step lines on stderr
    for a, b, n in itertools.product(range(1, 4), range(1, 4), range(2, 5)):
        for source in ("toric-i", "toric-j"):
            yield ("groebner", "--source", source, "--order", "prec-1", "--trace",
                   "--a", str(a), "--b", str(b), "--n", str(n))


def _calls_digest(capsys, calls) -> str:
    # each call in text and json: its stdout, stderr and exit code
    digest = hashlib.sha256()
    for argv in calls:
        for fmt in ("text", "json"):
            outcome = _outcome(capsys, (*argv, "--format", fmt))
            digest.update(repr((argv, fmt, outcome)).encode())
    return digest.hexdigest()


def test_engine_command_output_digest_is_pinned(capsys):
    # sweep, betti, unique and groebner over small boxes: 2,042 calls, text and json,
    # hash to one digest
    assert _calls_digest(capsys, _engine_calls()) == (
        "e808b6147234a10241feaaf79b5abb542914eceb707bc3dc3dfa5e94eab70f76")


def test_engine_trace_output_digest_is_pinned(capsys):
    # the trace lines move with the pair update's skip decisions and their
    # order, which leave the non-trace outputs as they are; so they hash apart
    assert _calls_digest(capsys, _trace_calls()) == (
        "fe8ce49950a71c5d481fed27664d3de4a2683f5faf0903539ce6b815457eeff4")


def test_interrupt_is_one_line_and_exit_130():
    # Ctrl-C inside a handler: one error line and exit 130, no traceback.  It
    # is raised in a child process, so an escaping KeyboardInterrupt ends the child alone.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    script = ("import sys\n"
              "from repunit_toric import cli\n"
              "def interrupted(args):\n"
              "    raise KeyboardInterrupt\n"
              "cli._HANDLERS['info'] = interrupted\n"
              "sys.exit(cli.main(['info', '--a', '1', '--b', '2', '--n', '4']))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (130, b"", b"error: interrupted\n")
