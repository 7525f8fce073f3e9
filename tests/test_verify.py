"""Claim runners and report plumbing."""

import json
import time

import pytest

from repunit_toric import families, fibers, groebner, orders, verify
from repunit_toric.binomials import Binomial
from repunit_toric.families import toric_ideal
from repunit_toric.fibers import betti_splits
from repunit_toric.cli import exit_code, render_text, report_to_dict
from repunit_toric.semigroup import InstanceParams
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
    # the structured families are oriented by the side rule lemma3 checks, so
    # one wrong (i, j, k) fails lemma3 and the orientation gate at that i
    rule = orders.minor_side_predicate

    def flipped(n, i, j, k):
        return rule(n, i, j, k) != ((i, j, k) == (3, 1, 2))

    monkeypatch.setattr(families, "minor_side_predicate", flipped)
    monkeypatch.setattr(verify, "minor_side_predicate", flipped)
    p = InstanceParams(2, 3, 5)
    (report,) = run_claim("lemma3", p)
    (lemma3,) = report.claims
    assert (lemma3.status, lemma3.detail) == (
        FAIL, "side classifier: disagrees at (i, j, k) = [(3, 1, 2)]")
    for claim in ("prop-gb1", "thm-gb2"):
        reports = run_claim(claim, p)
        assert [r.overall() for r in reports] == ["pass", "pass", "fail", "pass", "pass"]
        gate = reports[2].claims
        assert [(c.status, c.detail) for c in gate] == [
            (FAIL, "orientation: plus side of every element is its leading term")]
    monkeypatch.undo()
    assert all_pass(run_claim("lemma3", p) + run_claim("thm-gb2", p, 3))


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
