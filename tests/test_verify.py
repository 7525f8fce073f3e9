"""Claim runners and report plumbing."""

import json
import time

import pytest

from repunit_toric import families, fibers, groebner, orders, verify
from repunit_toric.binomials import Binomial
from repunit_toric.families import toric_ideal
from repunit_toric.fibers import betti_splits
from repunit_toric.cli import exit_code, main, render_text, report_to_dict
from repunit_toric.semigroup import InstanceParams, generators
from repunit_toric.verify import (
    CLAIMS,
    FAIL,
    ClaimResult,
    VerificationReport,
    four_variable_generators,
    run_claim,
)


def all_pass(reports):
    return all(r.overall() == "pass" for r in reports)


def test_lemma_claims_pass():
    assert all_pass(run_claim("lemma2", InstanceParams(3, 2, 4)))
    assert all_pass(run_claim("lemma3", InstanceParams(2, 3, 6)))


def test_lemma3_is_exact_past_the_exponent_limit(capsys):
    # lemma3's sides are sums of chain_matrix columns, never packed: at
    # b = 2^31, where the chain's minor builders raise, it still passes
    argv = ["verify", "--claim", "lemma3", "--a", "1", "--b", "2147483648", "--n", "5"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out.splitlines()[-1], err) == ("overall: pass", "")


def test_basis_claims_pass_per_index():
    reports = run_claim("prop-gb1", InstanceParams(1, 3, 5))
    assert len(reports) == 5
    assert [r.i for r in reports] == [1, 2, 3, 4, 5]
    assert all_pass(reports)
    assert all_pass(run_claim("thm-gb2", InstanceParams(1, 3, 5), i=2))


def test_saturation_and_toric_claims_pass():
    assert all_pass(run_claim("cor-gb1", InstanceParams(2, 3, 5)))
    assert all_pass(run_claim("cor-gb2", InstanceParams(2, 3, 5)))
    # n = 8: the relation ideals saturate to the minors in a fraction of a
    # second from x_n down, against 91 s and over 120 s from x_1 up
    assert all_pass(run_claim("cor-gb1", InstanceParams(2, 5, 8)))
    assert all_pass(run_claim("cor-gb2", InstanceParams(5, 6, 8)))


def test_example_claims_pass_on_pinned_instances():
    assert all_pass(run_claim("example5", InstanceParams(1, 5, 5)))
    assert all_pass(run_claim("example-n4-minors", InstanceParams(1, 3, 4)))
    assert all_pass(run_claim("example-gcd3", InstanceParams(3, 2, 4)))
    assert all_pass(run_claim("example-a3b3", InstanceParams(3, 3, 4)))


def test_a_flipped_side_rule_fails_lemma3_and_the_orientation_gate(monkeypatch):
    # one wrong (i, j, k) in the side rule lemma3 checks fails lemma3, and
    # the same minor flipped in the basis that verify builds fails the
    # orientation gate at that i: the minor on columns (1, 2) at i = 3
    rule = orders.minor_side_predicate

    def flipped(n, i, j, k):
        return rule(n, i, j, k) != ((i, j, k) == (3, 1, 2))

    monkeypatch.setattr(verify, "minor_side_predicate", flipped)
    p = InstanceParams(2, 3, 5)
    (report,) = run_claim("lemma3", p)
    (lemma3,) = report.claims
    assert (lemma3.status, lemma3.detail) == (
        FAIL, "side classifier: disagrees at (i, j, k) = [(3, 1, 2)]")
    real = verify.oriented_basis

    def flipped_basis(params, fam, i):
        basis = real(params, fam, i)
        if i != 3:
            return basis
        _, _, _, p12, q12 = fam[0]  # the chain lists the minor on columns (1, 2) first
        rules = tuple((q, p) if {p, q} == {p12, q12} else (p, q) for p, q in basis.rules)
        assert rules != basis.rules
        return groebner.GroebnerBasis(rules, basis.order)

    monkeypatch.setattr(verify, "oriented_basis", flipped_basis)
    for claim in ("prop-gb1", "thm-gb2"):
        reports = run_claim(claim, p)
        assert [r.overall() for r in reports] == ["pass", "pass", "fail", "pass", "pass"]
        gate = reports[2].claims
        assert [(c.status, c.detail) for c in gate] == [
            (FAIL, "orientation: plus side of every element is its leading term")]
    monkeypatch.undo()
    assert all_pass(run_claim("lemma3", p) + run_claim("thm-gb2", p, 3))


def test_thm_gb2_orients_its_basis_once(monkeypatch, capsys):
    # the orientation gate and is_groebner_basis read one orientation pass
    # over the basis: one compare per rule, 45 at (3,4,10), i = 5, not 90
    real = orders.MatrixOrder.compare
    calls = []
    monkeypatch.setattr(orders.MatrixOrder, "compare",
                        lambda self, u, v: calls.append((u, v)) or real(self, u, v))
    argv = ["verify", "--claim", "thm-gb2", "--a", "3", "--b", "4", "--n", "10", "--i", "5"]
    assert main(argv) == 0
    assert "overall: pass" in capsys.readouterr().out
    assert len(calls) == 45


@pytest.mark.parametrize("argv,calls", [
    (("thm-gb2", "--a", "3", "--b", "4", "--n", "10", "--i", "5"), 45),
    (("prop-gb1", "--a", "3", "--b", "4", "--n", "10", "--i", "5"), 36),
    (("cor-gb2", "--a", "1", "--b", "4", "--n", "6"), 15),
    (("example5", "--a", "1"), 6),
    (("example-a3b3",), 6),
])
def test_verify_forms_each_minor_once_per_run(monkeypatch, capsys, argv, calls):
    # the family's minors once, for its checks and every basis built from
    # them; cor-gb2's relation rows are column differences and form none:
    # 90, 72, 110, 36 and 12 calls when each basis formed its own minors
    # and each relation row its own
    real = families._minor
    formed = []
    monkeypatch.setattr(families, "_minor", lambda *args: formed.append(args) or real(*args))
    assert main(["verify", "--claim", *argv]) == 0
    assert "overall: pass" in capsys.readouterr().out
    assert len(formed) == calls


def test_example5_fails_with_the_cyclic_rank_orientation_flipped(monkeypatch, capsys):
    # exceeds-structured checks each structured open family as prop-gb1 does,
    # so every minor led against the cyclic column rank fails it at every i
    real = families._oriented

    def flipped(params, fam, i):
        return [(part, q, p, v, u) for part, p, q, u, v in real(params, fam, i)]

    monkeypatch.setattr(families, "_oriented", flipped)
    assert main(["verify", "--claim", "example5", "--a", "1"]) == 1
    checks = capsys.readouterr().out.splitlines()[1:3]
    assert [line.rpartition(" (")[0] for line in checks] == [
        "  [pass] example5: reduced-size: reduced basis has 8 elements",
        "  [fail] example5: exceeds-structured: the structured family is not the reduced basis"
        " at i = [1, 2, 3, 4, 5]",
    ]


def test_a_zero_rule_fails_the_orientation_gate_before_the_s_pairs(monkeypatch):
    # a zero rule has no orientation to get wrong, so the basis reports no
    # unoriented rule; the gate still fails, and the S-pair check never runs
    real = verify.oriented_basis

    def with_zero(params, fam, i):
        basis = real(params, fam, i)
        (p, _), *rest = basis.rules
        zeroed = groebner.GroebnerBasis(((p, p), *rest), basis.order)
        assert zeroed.unoriented is None
        return zeroed

    def forbidden(basis):
        raise AssertionError("the S-pair check ran past a failed orientation gate")

    monkeypatch.setattr(verify, "oriented_basis", with_zero)
    monkeypatch.setattr(verify, "is_groebner_basis", forbidden)
    for claim in ("prop-gb1", "thm-gb2"):
        (report,) = run_claim(claim, InstanceParams(2, 3, 5), 3)
        assert [(c.status, c.detail) for c in report.claims] == [
            (FAIL, "orientation: plus side of every element is its leading term")]


def _sub_checks(capsys, *argv):
    """Exit code and (label, status) of each sub-check of one verify run."""
    code = main(["verify", "--claim", *argv, "--format", "json"])
    (report,) = json.loads(capsys.readouterr().out)
    return code, [(c["detail"].split(":")[0], c["status"]) for c in report["claims"]]


def test_engine_equality_compares_rules_not_sizes(monkeypatch, capsys):
    # the engine's reduced basis with its last rule's sides swapped keeps
    # the family's size: engine-equality alone fails
    real = verify.groebner_reduced

    def swapped(gens, order):
        gb = real(gens, order)
        *rest, (p, q) = gb.rules
        return groebner.GroebnerBasis((*rest, (q, p)), gb.order)

    monkeypatch.setattr(verify, "groebner_reduced", swapped)
    assert _sub_checks(capsys, "prop-gb1", "--a", "1", "--b", "3", "--n", "5", "--i", "2") == (
        1, [("orientation", "pass"), ("groebner", "pass"), ("reduced", "pass"),
            ("engine-equality", "fail")])


def test_coverage_compares_minors_not_sizes(monkeypatch, capsys):
    # the engine's reduced basis of the closed minors at (3,3,4), i = 2, is
    # oriented, Groebner and minimal and has the family's size, but holds a
    # binomial that is no minor: coverage alone fails
    def engine_basis(params, fam, i):
        order = orders.build_order_i(generators(params), i)
        gb = groebner.groebner_reduced([(u, v) for _, u, v, _, _ in fam], order)
        assert len(gb) == len(fam)
        return gb

    monkeypatch.setattr(verify, "oriented_basis", engine_basis)
    assert _sub_checks(capsys, "thm-gb2", "--a", "3", "--b", "3", "--n", "4", "--i", "2") == (
        1, [("orientation", "pass"), ("groebner", "pass"), ("minimal", "pass"),
            ("coverage", "fail")])


def test_uniqueness_equivalence_reads_the_all_i_leg(monkeypatch, capsys):
    # at (1,3,5) the oracle and a < b - 1 agree; a structured family that
    # is not reduced at some i fails uniqueness-equivalence alone
    monkeypatch.setattr(verify, "is_reduced_basis", lambda basis: False)
    assert _sub_checks(capsys, "cor-gb2", "--a", "1", "--b", "3", "--n", "5") == (
        1, [("relation-matrix", "pass"), ("lattice-route", "pass"),
            ("toric-equals-minors", "pass"), ("minimal-generation", "pass"),
            ("uniqueness-equivalence", "fail")])


def test_n4_minors_walks_the_fibers_once(monkeypatch):
    calls = []

    def counted(gens, grading):
        calls.append(grading)
        return betti_splits(gens, grading)

    for module in (verify, fibers):
        monkeypatch.setattr(module, "betti_splits", counted)
    reports = run_claim("example-n4-minors", InstanceParams(1, 3, 4))
    assert all_pass(reports)
    assert [c.detail.split(":")[0] for c in reports[0].claims][-1] == "forced-system"
    assert len(calls) == 1


def test_printed_four_variable_set():
    gens = four_variable_generators(InstanceParams(1, 3, 4))
    assert len(gens) == 6
    assert Binomial((5, 0, 0, 0), (0, 1, 0, 3)) in gens
    with pytest.raises(ValueError):
        four_variable_generators(InstanceParams(1, 3, 5))


# (claim, instance) -> the refusal text every report of the run carries
REFUSALS = {
    ("prop-gb1", InstanceParams(1, 1, 4)): "claim assumes base b >= 2, got b=1",
    ("thm-gb2", InstanceParams(2, 1, 5)): "claim assumes base b >= 2, got b=1",
    ("cor-gb1", InstanceParams(1, 1, 5)): "claim assumes base b >= 2, got b=1",
    ("cor-gb1", InstanceParams(1, 2, 3)): "relation pattern needs n >= 4, got n=3",
    ("cor-gb2", InstanceParams(3, 2, 4)): "claim assumes coprime generators, got gcd 3",
    ("example5", InstanceParams(1, 5, 4)): "claim is pinned to n=5, b=5, got n=4, b=5",
    ("example5", InstanceParams(11, 5, 5)): "claim assumes gcd(a, 781) == 1, got a=11",
    ("example-n4-minors", InstanceParams(3, 2, 4)):
        "claim assumes coprime generators, got gcd 3",
    ("example-gcd3", InstanceParams(1, 2, 4)):
        "claim is pinned to a=3, b=2, n=4, got a=1, b=2, n=4",
    ("example-a3b3", InstanceParams(1, 3, 4)):
        "claim is pinned to a=3, b=3, n=4, got a=1, b=3, n=4",
}


@pytest.mark.parametrize("claim,params", list(REFUSALS))
def test_refusals(claim, params):
    detail = REFUSALS[claim, params]
    indices = list(range(1, params.n + 1)) if CLAIMS[claim].per_index else [None]
    reports = run_claim(claim, params)
    assert [(r.name, r.params, r.i) for r in reports] == [(claim, params, i) for i in indices]
    assert [(r.name, c.status, c.detail) for r in reports for c in r.claims] == [
        (claim, "refused", detail)
    ] * len(indices)
    assert exit_code(reports) == 2


def test_run_claim_argument_errors():
    with pytest.raises(ValueError):
        run_claim("lemma7", InstanceParams(1, 2, 4))
    with pytest.raises(ValueError):
        run_claim("prop-gb1", InstanceParams(1, 2, 4), i=9)
    with pytest.raises(ValueError):
        run_claim("lemma2", InstanceParams(1, 2, 4), i=1)


def test_weight_toric_reduces_the_minors_once(monkeypatch):
    """cor-gb2's lattice route and toric route share one reduced basis of the minors."""
    runs = []

    def counted(run):
        def wrapper(*args, **kwargs):
            runs.append(run)
            return run(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(groebner, "buchberger", counted(groebner.buchberger))
    monkeypatch.setattr(families, "buchberger", counted(families.buchberger))
    (report,) = run_claim("cor-gb2", InstanceParams(1, 5, 6))
    assert report.overall() == "pass"
    # six one-variable saturations, the saturated ideal, the minors and the
    # elimination run
    assert len(runs) == 9


def test_noncoprime_counts_times_its_toric_ideal(monkeypatch):
    """example-gcd3 computes its toric ideal once, inside a timed sub-check."""
    calls = []

    def slow(grading, order=None):
        calls.append(grading)
        time.sleep(0.03)
        return toric_ideal(grading, order)

    monkeypatch.setattr(verify, "toric_ideal", slow)
    (report,) = run_claim("example-gcd3", InstanceParams(3, 2, 4))
    assert report.overall() == "pass"
    assert len(calls) == 1
    assert max(c.ms for c in report.claims) >= 30


def test_claim_registry_defaults():
    assert set(CLAIMS) == {
        "lemma2", "lemma3", "prop-gb1", "thm-gb2", "cor-gb1", "cor-gb2",
        "example5", "example-n4-minors", "example-gcd3", "example-a3b3",
    }
    assert dict(CLAIMS["example5"].defaults) == {"b": 5, "n": 5}
    assert dict(CLAIMS["example-gcd3"].defaults) == {"a": 3, "b": 2, "n": 4}


def test_report_round_trip():
    # the JSON of report_to_dict carries every field of every report
    reports = run_claim("prop-gb1", InstanceParams(1, 3, 4), i=2)
    reports += run_claim("example-gcd3", InstanceParams(3, 2, 4))
    data = json.loads(json.dumps([report_to_dict(r) for r in reports]))
    assert [d["instance"] for d in data] == [
        {"a": 1, "b": 3, "n": 4, "i": 2}, {"a": 3, "b": 2, "n": 4}]
    for d, r in zip(data, reports, strict=True):
        assert d["claims"] == [
            {"name": r.name, "status": c.status, "detail": c.detail, "ms": c.ms}
            for c in r.claims
        ]
        assert d["timing"] == {r.name: sum(c.ms for c in r.claims)}
        assert d["overall"] == r.overall() == "pass"


def test_report_rendering_and_exit_codes():
    ok = ClaimResult("pass", "check-a: fine", 3)
    bad = ClaimResult("fail", "check-b: broke")
    refused = ClaimResult("refused", "not applicable")
    params = InstanceParams(1, 2, 4)

    def report(*results, i=None):
        return VerificationReport("lemma2", params, i, results)

    assert report(ok, bad).overall() == "fail"
    assert report(ok, bad, refused).overall() == "refused"
    assert report(ok).overall() == "pass"

    text = render_text([report(ok, bad, i=2)])
    assert text.splitlines() == [
        "instance: a=1 b=2 n=4 i=2",
        "  [pass] lemma2: check-a: fine (3 ms)",
        "  [fail] lemma2: check-b: broke (0 ms)",
        "overall: fail",
    ]

    assert exit_code([report(ok)]) == 0
    assert exit_code([report(ok, bad)]) == 1
    assert exit_code([report(ok, bad), report(refused)]) == 2
    with pytest.raises(ValueError):
        ClaimResult("maybe", "")


def test_timing_accumulates_by_claim_name():
    r = VerificationReport(
        "c", InstanceParams(1, 2, 4), None,
        (ClaimResult("pass", "", 5), ClaimResult("pass", "", 7)),
    )
    assert report_to_dict(r)["timing"] == {"c": 12}
