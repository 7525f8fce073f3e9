"""Buchberger closure, reduction, saturation.

The crafted fixtures here were worked out by hand; the family-level checks
lean on the constructors from families.py.
"""

import hashlib
import itertools
import operator
import random
import re
from collections import Counter
from math import comb

import pytest

from repunit_toric import binomials, cli, families, groebner
from repunit_toric.binomials import (
    EXPONENT_LIMIT,
    Binomial,
    ExponentOverflowError,
    Grading,
    RuleIndex,
    format_monomial,
    guard_bits,
    meet,
    pack,
    packed_lcm,
)
from repunit_toric.families import (
    minors_closed_chain,
    minors_open_chain,
    projective_grading,
    projective_relation_matrix,
    scalar_grading,
    structured_basis,
    toric_ideal,
    weight_relation_matrix,
)
from repunit_toric.fibers import prune_redundant_generators
from repunit_toric.groebner import (
    GroebnerBasis,
    buchberger,
    groebner_reduced,
    ideal_equal,
    is_groebner_basis,
    is_minimal_basis,
    is_reduced_basis,
    reduce_gb,
    saturate_torus,
)
from repunit_toric.intlinalg import kernel_basis
from repunit_toric.orders import MatrixOrder, build_order_i
from repunit_toric.semigroup import InstanceParams, generators

from test_families import NEGATIVE_GRADINGS, _random_orders


def oriented(f, order):
    # f with its order-larger side as plus
    return f if order.compare(f.plus, f.minus) > 0 else f.opposite()


def divides(u, v):
    # u divides v entrywise
    return all(a <= b for a, b in zip(u, v))


def _member(f, gb):
    # f lies in the ideal of gb exactly when adding it leaves the ideal unchanged
    return ideal_equal(gb.elements, [*gb.elements, f], gb.order)


def test_single_generator_is_its_own_basis():
    order = build_order_i((15, 18, 24, 36), 1)
    g = oriented(Binomial((0, 3, 0, 0), (2, 0, 1, 0)), order)
    gb = buchberger([g], order)
    assert gb.elements == (g,)
    assert is_groebner_basis(gb)


def test_buchberger_closes_a_gap():
    order = build_order_i((2, 1, 1), 3)
    f1 = oriented(Binomial((1, 0, 0), (0, 1, 0)), order)
    f2 = oriented(Binomial((1, 0, 1), (0, 2, 0)), order)
    assert f1.plus == (1, 0, 0) and f2.plus == (1, 0, 1)
    assert not is_groebner_basis(GroebnerBasis.of((f1, f2), order))
    gb = buchberger([f1, f2], order)
    assert is_groebner_basis(gb)
    assert Binomial((0, 2, 0), (0, 1, 1)) in gb.elements
    red = reduce_gb(gb)
    # ascending leads: x2^2 precedes x1 because x1 carries weight 2
    assert red.elements == (
        Binomial((0, 2, 0), (0, 1, 1)),
        Binomial((1, 0, 0), (0, 1, 0)),
    )
    assert is_minimal_basis(red) and is_reduced_basis(red)


def test_is_groebner_rejects_misoriented_input():
    order = build_order_i((2, 1, 1), 3)
    wrong = Binomial((0, 1, 0), (1, 0, 0))  # lead sits on the minus side
    with pytest.raises(ValueError):
        is_groebner_basis(GroebnerBasis.of((wrong,), order))


@pytest.mark.parametrize("gens", [
    [Binomial((1, 0, 0, 0, 1), (0, 1, 0, 0, 0))],  # an x5 the order has no column for
    [Binomial((1, 0, 0), (0, 1, 0))],  # no x4
    [Binomial((0, 1, 0, 0), (2, 0, 0, 0)), Binomial((0, 0, 1, 0, 0), (0, 0, 0, 0, 3))],
    [Binomial((0,) * 5, (0,) * 5)],  # a zero element is checked too
    [Binomial((0, 1, 0, 0), (2, 0, 0, 0)), Binomial((0,) * 5, (0,) * 5)],
], ids=["five", "three", "four-then-five", "zero-five", "four-then-zero-five"])
def test_variable_count_mismatch_raises_at_every_entry_point(gens):
    order = build_order_i((1, 2, 3, 4), 1)
    entry_points = [
        lambda: buchberger(gens, order),
        lambda: groebner_reduced(gens, order),
        lambda: ideal_equal(gens, gens, order),
        lambda: prune_redundant_generators(gens, order),
        lambda: saturate_torus(gens, Grading.scalar((1, 2, 3, 4))),
        lambda: GroebnerBasis.of(gens, order),
    ]
    for call in entry_points:
        with pytest.raises(ValueError, match="variable count mismatch with order matrix"):
            call()
    # the lead-only checks get their basis from the same constructor
    if len({g.nvars for g in gens}) > 1:
        for check in (is_minimal_basis, is_reduced_basis):
            with pytest.raises(ValueError, match="variable count mismatch with order matrix"):
                check(GroebnerBasis.of(gens, order))


def test_reduced_basis_ignores_generator_shuffles():
    params = InstanceParams(1, 2, 5)
    order = build_order_i(generators(params), 2)
    gens = list(minors_closed_chain(params))
    reference = groebner_reduced(gens, order).elements
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(gens)
        assert groebner_reduced(gens, order).elements == reference


def test_structured_family_flags():
    params = InstanceParams(3, 3, 4)
    closed = structured_basis(params, 2, True)
    assert is_groebner_basis(closed)
    assert is_minimal_basis(closed)
    assert not is_reduced_basis(closed)
    opened = structured_basis(params, 2, False)
    assert is_groebner_basis(opened)
    assert is_reduced_basis(opened)


def test_membership_and_ideal_equality():
    params = InstanceParams(1, 2, 4)
    order = build_order_i(generators(params), 1)
    minors = minors_closed_chain(params)
    gb = groebner_reduced(toric_ideal(scalar_grading(params)), order)
    for g in minors:
        assert _member(g, gb)
    assert not _member(Binomial((1, 0, 0, 0), (0, 1, 0, 0)), gb)
    assert ideal_equal(minors, tuple(reversed(minors)), order)

    noncoprime = InstanceParams(3, 2, 4)
    order2 = build_order_i(generators(noncoprime), 1)
    assert not ideal_equal(
        toric_ideal(scalar_grading(noncoprime)),
        minors_closed_chain(noncoprime),
        order2,
    )


def test_groebner_preserves_homogeneity():
    for a, b, n in [(2, 3, 4), (1, 2, 5)]:
        params = InstanceParams(a, b, n)
        w = scalar_grading(params)
        proj = projective_grading(params)
        for i in (1, n):
            order = build_order_i(generators(params), i)
            gb = buchberger(minors_open_chain(params), order)
            for g in gb:
                assert w.degree(g.plus) == w.degree(g.minus)
                assert proj.degree(g.plus) == proj.degree(g.minus)


def test_saturate_torus_strips_cofactor():
    grading = Grading.scalar((1, 1, 1))
    gens = [Binomial((1, 1, 0), (1, 0, 1))]  # x1*(x2 - x3)
    assert saturate_torus(gens, grading) == [Binomial((0, 1, 0), (0, 0, 1))]


def _saturate_per_variable(gens, grading):
    # reference: x_n down to x_1, a reduced basis under the x_i-cheap order,
    # then each element stripped of its common x_i power alone
    row = grading.positive_row()
    for i in range(grading.nvars, 0, -1):
        stripped = []
        for u, v in groebner_reduced(gens, build_order_i(row, i)).sides:
            c = min(u[i - 1], v[i - 1])
            cut = tuple(c if k == i - 1 else 0 for k in range(len(u)))
            stripped.append(Binomial(tuple(map(operator.sub, u, cut)),
                                     tuple(map(operator.sub, v, cut))))
        gens = stripped
    return gens


def _random_graded_ideal(rng):
    # kernel binomials of a 1-3-row grading with negative entries, each
    # times a common 0/1 cofactor; one coefficient per kernel vector keeps
    # every generator homogeneous
    n = rng.randint(3, 6)
    rows = [tuple(rng.randint(1, 4) for _ in range(n))]
    for _ in range(rng.randint(0, min(2, n - 2))):
        rows.append(tuple(rng.randint(-2, 2) for _ in range(n)))
    grading = Grading(rows)
    kernel = kernel_basis(grading.rows)
    gens, count = [], rng.randint(1, 3)
    while len(gens) < count:
        u = [0] * n
        for k in kernel:
            c = rng.randint(-2, 2)
            u = [e + c * f for e, f in zip(u, k)]
        if any(u):
            g = Binomial.from_vector(u)
            cofactor = [rng.randint(0, 1) for _ in range(n)]
            gens.append(Binomial(tuple(map(operator.add, g.plus, cofactor)),
                                 tuple(map(operator.add, g.minus, cofactor))))
    return gens, grading


def test_saturate_torus_matches_the_per_variable_reference():
    rng = random.Random(57)
    cases = [_random_graded_ideal(rng) for _ in range(150)]
    for a in range(1, 5):  # gcd 2, 3 and 4 weight kernels among them
        for b in range(2, 5):
            for n in (4, 5, 6):
                p = InstanceParams(a, b, n)
                cases.append(([Binomial.from_vector(r) for r in weight_relation_matrix(p)],
                              scalar_grading(p)))
                if a == 1:
                    cases.append(([Binomial.from_vector(r) for r in projective_relation_matrix(p)],
                                  projective_grading(p)))
    for gens, grading in cases:
        order = build_order_i(grading.positive_row(), 1)
        assert (groebner_reduced(saturate_torus(gens, grading), order).rules
                == groebner_reduced(_saturate_per_variable(gens, grading), order).rules), gens


def test_saturate_torus_fixes_saturated_ideal():
    params = InstanceParams(1, 2, 5)
    grading = projective_grading(params)
    minors = minors_open_chain(params)
    sat = saturate_torus(minors, grading)
    order = build_order_i(grading.positive_row(), 1)
    assert ideal_equal(sat, minors, order)


def test_s_pair_side_past_the_limit_raises():
    # lcm x1*x2*x3 of the leads; f1's side is x3^(LIMIT + 1)
    order = MatrixOrder(((EXPONENT_LIMIT + 1, 1, 1), (0, 1, 0), (0, 0, 1)))
    f1 = Binomial((1, 1, 0), (0, 0, EXPONENT_LIMIT))
    f2 = Binomial((1, 0, 1), (0, 1, 0))
    assert oriented(f1, order) == f1 and oriented(f2, order) == f2
    with pytest.raises(ExponentOverflowError):
        buchberger([f1, f2], order)
    with pytest.raises(ExponentOverflowError):
        is_groebner_basis(GroebnerBasis.of([f1, f2], order))


def test_s_pair_side_past_the_limit_raises_where_one_rule_joins_the_sides():
    # the first kept pair's sides are x3^(LIMIT + 2) and x2^2*x3^2, and
    # f3 rewrites the first to the second in one step
    order = MatrixOrder(((EXPONENT_LIMIT + 1, 1, 1), (0, 1, 0), (0, 0, 1)))
    f1 = Binomial((1, 1, 0), (0, 0, EXPONENT_LIMIT))
    f2 = Binomial((1, 0, 2), (0, 1, 2))
    f3 = Binomial((0, 0, EXPONENT_LIMIT), (0, 2, 0))
    assert all(oriented(f, order) == f for f in (f1, f2, f3))
    with pytest.raises(ExponentOverflowError):
        is_groebner_basis(GroebnerBasis.of([f1, f2, f3], order))


def test_trace_reports_pair_handling():
    lines: list[str] = []
    order = build_order_i((2, 1, 1), 3)
    f1 = oriented(Binomial((1, 0, 0), (0, 1, 0)), order)
    f2 = oriented(Binomial((1, 0, 1), (0, 2, 0)), order)
    buchberger([f1, f2], order, trace=lines.append)
    assert lines
    assert all(isinstance(s, str) for s in lines)
    assert any("pair" in s for s in lines)


def test_trace_pins_pair_outcomes():
    order = build_order_i((2, 1, 1), 3)
    f1 = oriented(Binomial((1, 0, 0), (0, 1, 0)), order)
    f2 = oriented(Binomial((1, 0, 1), (0, 2, 0)), order)
    lines: list[str] = []
    buchberger([f1, f2], order, trace=lines.append)
    # f2 enters after f1, at its higher weight, and is reduced by it first
    assert lines == [
        "input 0 -> x1 - x2",
        "input 1 -> x2^2 - x2*x3",
        "pair (0,1) lcm=x1*x2^2 skipped: coprime leads",
    ]

    # x3 * f1 enters after f2, its equal-weight predecessor, and reduces to zero
    lines.clear()
    gb = buchberger([f1, f2, Binomial((1, 0, 1), (0, 1, 1))], order, trace=lines.append)
    assert lines[2:] == ["pair (0,1) lcm=x1*x2^2 skipped: coprime leads", "input 2 -> 0"]
    assert gb.inputs == (0, 1)

    lines.clear()
    toric_ideal(scalar_grading(InstanceParams(1, 2, 4)), trace=lines.append)
    assert lines[0] == ("elimination run over x1..x5, where x5 = t_1, t_2 = x1; "
                        "input 3 is the relation x5^15 - x1")
    assert _pair_outcomes(lines[1:]) == {
        "input": 4, "added": 10, "zero": 5, "common": 33, "M": 4, "coprime": 39}


def _pair_outcomes(lines):
    # input lines count under "input" and "input_zero"
    outcomes = Counter()
    for s in lines:
        if s.startswith("input "):
            outcomes["input_zero" if s.endswith("-> 0") else "input"] += 1
        elif s.endswith("skipped: coprime leads"):
            outcomes["coprime"] += 1
        elif s.endswith("skipped: criterion M"):
            outcomes["M"] += 1
        elif s.endswith("skipped: criterion F"):
            outcomes["F"] += 1
        elif s.endswith("skipped: common factor"):
            outcomes["common"] += 1
        elif s.endswith("-> 0"):
            outcomes["zero"] += 1
        else:
            assert " -> " in s
            outcomes["added"] += 1
    return outcomes


def _sorted_digest(lines):
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


@pytest.mark.parametrize("abn, counts, digest", [
    ((2, 3, 5), {"input": 5, "added": 19, "zero": 16, "common": 105, "M": 15,
                 "coprime": 121},
     "d7a64c3a49fb00da92e6311d73c617c36248d33766169e7596629d05aadb579f"),
    ((5, 6, 6), {"input": 6, "added": 41, "zero": 57, "common": 514, "M": 59,
                 "coprime": 410},
     "763339105747164a2936336589c6e09f89e5990cc7cc8352e8ab08428ff54b07"),
], ids=["2-3-5", "5-6-6"])
def test_trace_pins_toric_run_outcomes(abn, counts, digest):
    # Every pair keeps its outcome line; the sorted digest allows the
    # skipped-pair lines of one insertion to come in any order.
    lines: list[str] = []
    toric_ideal(scalar_grading(InstanceParams(*abn)), trace=lines.append)
    assert _pair_outcomes(lines[1:]) == counts
    assert _sorted_digest(lines) == digest


@pytest.mark.parametrize("family, i, counts, digest", [
    (minors_closed_chain, 1, {"input": 45, "zero": 240, "M": 84, "coprime": 666},
     "7dee8f7d512cf0c52262bbacd1c0da4c96bf2458da0bb191b93a5fbdfe45984f"),
    (minors_closed_chain, 5, {"input": 45, "zero": 240, "M": 29, "F": 55, "coprime": 666},
     "b20fc61a8b7d2de043064f28648638b9750a7e0e0bbe0fbbe6e6a7e18fae3d57"),
    (minors_closed_chain, 10, {"input": 45, "zero": 240, "M": 84, "coprime": 666},
     "018e293d6cdf23b539453b0102094fb707222f33ab6674a48d322c30397e095a"),
    (minors_open_chain, 1, {"input": 36, "zero": 168, "M": 56, "coprime": 406},
     "e683b68b4106e6a36044f9cb13ca0ae26cf8345d2c560894ad29adf01e5642fa"),
    (minors_open_chain, 5, {"input": 36, "zero": 168, "M": 20, "F": 24, "coprime": 418},
     "ed7fef6a93de2c35d3040d2e2f2531d2e725226cd3589d5187dd24cce5cdf42a"),
    (minors_open_chain, 10, {"input": 36, "zero": 168, "M": 56, "coprime": 406},
     "e683b68b4106e6a36044f9cb13ca0ae26cf8345d2c560894ad29adf01e5642fa"),
], ids=["closed-1", "closed-5", "closed-10", "open-1", "open-5", "open-10"])
def test_trace_pins_minor_runs(family, i, counts, digest):
    # the minors at (3,4,10) are a Groebner basis already: every pair that
    # is not skipped reduces to zero
    p = InstanceParams(3, 4, 10)
    lines: list[str] = []
    buchberger(family(p), build_order_i(generators(p), i), trace=lines.append)
    assert _pair_outcomes(lines) == counts
    assert _sorted_digest(lines) == digest


def test_trace_pins_the_random_ideal_runs():
    counts = Counter()
    digest = hashlib.sha256()
    for gens, order, _ in _random_ideals():
        lines: list[str] = []
        buchberger(gens, order, trace=lines.append)
        counts += _pair_outcomes(lines)
        digest.update("\n".join(sorted(lines)).encode() + b"\n\n")
    assert counts == {"input": 125, "input_zero": 30, "added": 103, "zero": 192,
                      "M": 309, "F": 55, "coprime": 25}
    assert digest.hexdigest() == (
        "0f8a182209676d3ea75fd2a383bae192e3ebb1e8ce9853de52c2cc63df630662")


def _recorded_runs(monkeypatch):
    # the raw buchberger result of each later toric_ideal call, in order
    runs = []

    def recording(gens, order, trace=None, **kwargs):
        runs.append(buchberger(gens, order, trace, **kwargs))
        return runs[-1]

    monkeypatch.setattr(families, "buchberger", recording)
    return runs


def test_every_common_factor_skip_has_sides_sharing_a_variable(monkeypatch):
    # Each "skipped: common factor" line of a toric run names a pair (i,j)
    # of the run's raw rules and its lcm; the pair's two sides, the lcm
    # rewritten one step by each rule, must share a variable.  The engine
    # tests the rules' tails only, which is enough when no raw rule's lead
    # and tail share a variable; that is checked too.  On the sweep box
    # (order prec-1), the projective gradings of its b and n (prec-1 and
    # prec-n) and gradings with negative entries under seeded orders.
    runs = _recorded_runs(monkeypatch)
    cases = []
    for a, b, n in itertools.product(range(1, 9), range(2, 7), range(4, 7)):
        grading = scalar_grading(InstanceParams(a, b, n))
        cases.append((grading, build_order_i(grading.positive_row(), 1)))
    for b, n in itertools.product(range(2, 7), range(4, 7)):
        grading = projective_grading(InstanceParams(1, b, n))
        cases += [(grading, build_order_i(grading.positive_row(), i)) for i in (1, n)]
    for grading in map(Grading, NEGATIVE_GRADINGS):
        cases += [(grading, order) for order in _random_orders(grading)]
    skips = 0
    for grading, order in cases:
        runs.clear()
        lines: list[str] = []
        toric_ideal(grading, order, lines.append)
        rules = runs[0].elements
        assert not any(p and q for g in rules for p, q in zip(g.plus, g.minus)), grading.rows
        for s in lines:
            m = re.fullmatch(r"pair \((\d+),(\d+)\) lcm=(\S+) skipped: common factor", s)
            if not m:
                continue
            f, g = rules[int(m[1])], rules[int(m[2])]
            lcm = tuple(map(max, f.plus, g.plus))
            assert format_monomial(lcm) == m[3], s
            u = tuple(e - p + q for e, p, q in zip(lcm, f.plus, f.minus))
            v = tuple(e - p + q for e, p, q in zip(lcm, g.plus, g.minus))
            assert any(x and y for x, y in zip(u, v)), (grading.rows, order.rows, s)
            skips += 1
    assert skips > 50000, skips


def test_trace_pins_a_run_with_inputs_listed_heaviest_first(monkeypatch):
    # The (2,3,5) weights listed largest first: x5, the lightest, stands
    # for t_2, and the other inputs enter the queue lightest first, last
    # to first, each reduced by the rules of the lighter ones; the
    # relation x6^121 - x5^2, heavier than them all, enters last.  No rule
    # is superseded, so every input and every added remainder stays in the
    # output.  The whole trace is pinned in order, so every rewrite is
    # checked step by step.
    runs = _recorded_runs(monkeypatch)
    grading = Grading.scalar(tuple(reversed(generators(InstanceParams(2, 3, 5)))))
    lines: list[str] = []
    toric_ideal(grading, trace=lines.append)
    counts = _pair_outcomes(lines[1:])
    assert counts == {"input": 5, "added": 19, "zero": 15, "common": 113, "M": 16,
                      "coprime": 113}
    inputs = [s.split(" -> ")[0] for s in lines[1:] if s.startswith("input ")]
    assert inputs == [f"input {k}" for k in (3, 2, 1, 0, 4)]
    assert runs[0].inputs == (3, 2, 1, 0, 4)
    assert len(runs[0]) == counts["input"] + counts["added"]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "3f54d23bdde72f38019318cbadbfeef9c951b3d4f3cc9d91db02f1568a77dd46")


def _tuple_is_minimal(elements):
    leads = [g.plus for g in elements if not g.is_zero()]
    return not any(i != j and divides(p, q)
                   for i, p in enumerate(leads) for j, q in enumerate(leads))


def _tuple_is_reduced(elements):
    elems = [g for g in elements if not g.is_zero()]
    return not any(i != j and (divides(g.plus, h.plus) or divides(g.plus, h.minus))
                   for i, g in enumerate(elems) for j, h in enumerate(elems))


def _random_family(rng):
    # sparse exponents, some at the limit, with zero elements and
    # repeated leads mixed in
    nvars = rng.randint(1, 5)

    def mono():
        return tuple(rng.choice((0, 0, 0, 1, 2, EXPONENT_LIMIT)) for _ in range(nvars))

    family = []
    for _ in range(rng.randint(0, 6)):
        r = rng.random()
        if r < 0.15:
            family.append(Binomial.from_vector((0,) * nvars))
            continue
        plus = rng.choice(family).plus if r < 0.3 and family else mono()
        minus = mono()
        if plus != minus:
            family.append(Binomial(plus, minus))
    return family


def test_minimal_and_reduced_checks_match_tuple_definitions():
    rng = random.Random(20212)
    seen = Counter()
    for _ in range(3000):
        family = _random_family(rng)
        minimal, reduced = _tuple_is_minimal(family), _tuple_is_reduced(family)
        basis = GroebnerBasis.of(family, build_order_i((1,) * (family[0].nvars if family else 1), 1))
        assert is_minimal_basis(basis) == minimal, family
        assert is_reduced_basis(basis) == reduced, family
        seen[minimal, reduced] += 1
    assert min(seen[True, True], seen[True, False], seen[False, False]) >= 50, seen
    mixed = [Binomial((1, 0), (0, 1)), Binomial((1, 0, 0), (0, 0, 1))]
    for check in (is_minimal_basis, is_reduced_basis):
        with pytest.raises(ValueError):
            check(GroebnerBasis.of(mixed, build_order_i((1, 1), 1)))


def _random_homogeneous_gens(rng, nvars):
    # distinct monomials (exponents <= 3) of equal weighted degree
    w = tuple(rng.randint(1, 4) for _ in range(nvars))
    by_degree: dict[int, list[tuple[int, ...]]] = {}
    for e in itertools.product(range(4), repeat=nvars):
        by_degree.setdefault(sum(x * y for x, y in zip(w, e)), []).append(e)
    classes = [monos for monos in by_degree.values() if len(monos) > 1]
    gens = []
    for _ in range(rng.randint(2, 4)):
        u, v = rng.sample(rng.choice(classes), 2)
        gens.append(Binomial(u, v))
    return w, gens


def _random_ideals():
    # 50 seeded (gens, order, shuffled gens) triples
    rng = random.Random(20211)
    for _ in range(50):
        nvars = rng.randint(3, 4)
        w, gens = _random_homogeneous_gens(rng, nvars)
        order = build_order_i(w, rng.randint(1, nvars))
        shuffled = list(gens)
        rng.shuffle(shuffled)
        yield gens, order, shuffled


def _binomial_of(expr, xs, sympy):
    # a sympy basis element of a pure-difference ideal as a Binomial
    terms = sympy.Poly(expr, *xs).terms()
    assert len(terms) == 2 and {c for _, c in terms} == {1, -1}
    plus = next(e for e, c in terms if c == 1)
    minus = next(e for e, c in terms if c == -1)
    return Binomial(tuple(map(int, plus)), tuple(map(int, minus)))


def _agrees_with_sympy(gens, order, shuffled, sympy):
    # the reduced basis against sympy's grevlex basis of the same ideal
    xs = sympy.symbols(f"x1:{order.nvars + 1}")

    def to_expr(g):
        return sympy.Mul(*(x**p for x, p in zip(xs, g.plus))) - sympy.Mul(
            *(x**p for x, p in zip(xs, g.minus))
        )

    gb = groebner_reduced(gens, order)
    assert is_groebner_basis(gb)
    assert is_reduced_basis(gb)
    other = sympy.groebner([to_expr(g) for g in gens], *xs, order="grevlex")
    for g in gb:
        assert other.reduce(to_expr(g))[1] == 0
    for expr in other.exprs:
        assert _member(_binomial_of(expr, xs, sympy), gb)
    for g in gens:
        assert _member(g, gb)
    assert groebner_reduced(shuffled, order).elements == gb.elements


def test_random_homogeneous_ideals_against_sympy():
    sympy = pytest.importorskip("sympy")
    for gens, order, shuffled in _random_ideals():
        _agrees_with_sympy(gens, order, shuffled, sympy)


def _random_inhomogeneous_ideals():
    # 30 seeded (gens, order, shuffled gens) triples whose binomials join
    # monomials of different weight under the order's first row
    rng = random.Random(20216)
    for _ in range(30):
        nvars = rng.randint(2, 4)
        w = tuple(rng.randint(1, 4) for _ in range(nvars))
        order = build_order_i(w, rng.randint(1, nvars))
        gens, size = [], rng.randint(2, 4)
        while len(gens) < size:
            u, v = (tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(2))
            if sum(map(operator.mul, w, u)) != sum(map(operator.mul, w, v)):
                gens.append(oriented(Binomial(u, v), order))
        shuffled = list(gens)
        rng.shuffle(shuffled)
        yield gens, order, shuffled


def test_random_inhomogeneous_ideals_against_sympy():
    # off the program's paths: leads may divide one another and rules may
    # be superseded, but the raw output must still be a Groebner basis
    sympy = pytest.importorskip("sympy")
    superseded = 0
    for gens, order, shuffled in _random_inhomogeneous_ideals():
        raw = buchberger(gens, order).elements
        assert is_groebner_basis(GroebnerBasis.of(raw, order)), gens
        superseded += not is_minimal_basis(GroebnerBasis.of(raw, order))
        _agrees_with_sympy(gens, order, shuffled, sympy)
    assert superseded >= 10


def test_raw_buchberger_output_is_a_groebner_basis(monkeypatch):
    # The pair criteria, and on toric_ideal's elimination runs the skip of
    # pairs whose sides share a variable, may only skip pairs whose
    # S-binomials have standard representations; the exhaustive check sees
    # every pair of the unreduced output.  The elimination runs cover
    # scalar and projective gradings and gradings with negative entries.
    for gens, order, _ in _random_ideals():
        assert is_groebner_basis(buchberger(gens, order))

    runs = _recorded_runs(monkeypatch)
    gradings = [scalar_grading(InstanceParams(a, b, n))
                for a, b, n in itertools.product(range(1, 4), range(2, 5), range(4, 6))]
    gradings += [projective_grading(InstanceParams(a, b, n))
                 for a, b, n in itertools.product((1, 2), range(2, 5), range(4, 6))]
    gradings += map(Grading, NEGATIVE_GRADINGS)
    for grading in gradings:
        runs.clear()
        toric_ideal(grading)
        elim = runs[0]
        assert is_groebner_basis(elim), grading.rows


def _leads_cover(elements, order):
    # the definition: every lead of the reduced basis of the ideal of
    # elements is divisible by a lead of elements
    leads = [g.plus for g in elements if not g.is_zero()]
    return all(any(divides(p, g.plus) for p in leads)
               for g in groebner_reduced(elements, order))


def test_is_groebner_basis_matches_the_lead_definition():
    # The exhaustive S-pair check stops where the two sides' rewrite
    # chains meet; it must still agree with the definition on raw engine
    # output (a basis) and on each list with one element left out, which
    # is mostly not a basis.
    seen = Counter()
    for gens, order, _ in _random_ideals():
        raw = list(buchberger(gens, order).elements)
        assert is_groebner_basis(GroebnerBasis.of(raw, order)) and _leads_cover(raw, order)
        for k in range(len(raw)):
            rest = raw[:k] + raw[k + 1:]
            want = _leads_cover(rest, order)
            assert is_groebner_basis(GroebnerBasis.of(rest, order)) == want, (rest, order.rows)
            seen[want] += 1
    assert seen[False] >= 50 and seen[True] >= 20, seen


def _all_pairs_is_groebner_basis(basis):
    # the reference: every pair of nonzero rules whose leads share a
    # variable is met, with no pair criterion
    index = RuleIndex(basis.order.nvars, [r for r in basis.rules if r[0] != r[1]])
    rules = index.rules  # (rule, support pattern of its lead)
    for j, ((x, y), t) in enumerate(rules):
        for (f, g), s in rules[:j]:
            if s & t:
                big = packed_lcm(f, x, index.guard)
                u, v = meet(big - f + g, big - x + y, index)
                if u != v:
                    return False
    return True


def _leave_one_out(basis):
    # basis, then each list of its rules with one left out, under its order
    yield basis
    for k in range(len(basis.rules)):
        yield GroebnerBasis(basis.rules[:k] + basis.rules[k + 1:], basis.order)


def test_pair_criteria_agree_with_the_all_pairs_check():
    # Criteria M and F leave out the pairs whose syzygies the kept and the
    # coprime pairs generate, so the check must answer as the all-pairs
    # loop does: on raw engine output of the random ideals, on the
    # structured families at n = 4..8, every i, open and closed, and on
    # each of them with one rule left out.
    seen = Counter()
    bases = [buchberger(gens, order) for gens, order, _ in _random_ideals()]
    bases += [structured_basis(InstanceParams(a, b, n), i, closed)
              for a, b, n in itertools.product((1, 5), (2, 4), range(4, 9))
              for i in range(1, n + 1) for closed in (False, True)]
    for basis in bases:
        for case in _leave_one_out(basis):
            want = _all_pairs_is_groebner_basis(case)
            assert is_groebner_basis(case) == want, (case.rules, case.order.rows)
            seen[want] += 1
    assert seen[False] >= 3000 and seen[True] >= 500, seen


def _all_pairs_is_minimal_basis(basis):
    # the reference: every lead of a nonzero rule tested against every other
    guard = guard_bits(basis.order.nvars)
    leads = [p for p, q in basis.rules if p != q]
    for j, q in enumerate(leads):
        q |= guard
        for i, p in enumerate(leads):
            if (q - p) & guard == guard and i != j:
                return False
    return True


def _all_pairs_is_reduced_basis(basis):
    # the reference: every lead tested against every other rule's lead and tail
    guard = guard_bits(basis.order.nvars)
    rules = [r for r in basis.rules if r[0] != r[1]]
    for j, (q, r) in enumerate(rules):
        q |= guard
        r |= guard
        for i, (p, _) in enumerate(rules):
            if ((q - p) & guard == guard or (r - p) & guard == guard) and i != j:
                return False
    return True


def _retailed(basis):
    # basis with one rule's tail multiplied by the next rule's lead, each rule in turn
    rules = basis.rules
    for k, (p, q) in enumerate(rules):
        f = rules[(k + 1) % len(rules)][0]
        yield GroebnerBasis(rules[:k] + ((p, q + f),) + rules[k + 1:], basis.order)


def test_index_checks_agree_with_the_all_pairs_loops():
    # is_minimal_basis and is_reduced_basis look each lead and tail up in
    # the basis's index, whose lists is_groebner_basis also builds and
    # reads.  They must answer as the all-pairs loops do, whether they run
    # before or after the S-pair check on the same basis: on raw and
    # reduced engine output of the random ideals, and on the structured
    # families at n = 4..8, every i, open and closed, each also with one
    # rule left out, with one tail multiplied by another rule's lead and
    # with its first rule repeated, whose equal lead counts as dividing.
    seen = Counter()
    cases = []
    for gens, order, _ in _random_ideals():
        raw = buchberger(gens, order)
        cases += [raw, reduce_gb(raw)]
    for (a, b), n in itertools.product(((1, 4), (5, 2)), range(4, 9)):
        for i in range(1, n + 1):
            for closed in (False, True):
                basis = structured_basis(InstanceParams(a, b, n), i, closed)
                cases += [*_leave_one_out(basis), *_retailed(basis),
                          GroebnerBasis(basis.rules + basis.rules[:1], basis.order)]
    for case in cases:
        want = _all_pairs_is_minimal_basis(case), _all_pairs_is_reduced_basis(case)
        checks_first = GroebnerBasis(case.rules, case.order)
        s_pairs_first = GroebnerBasis(case.rules, case.order)
        assert (is_minimal_basis(checks_first), is_reduced_basis(checks_first)) == want
        if case.unoriented is None:
            assert is_groebner_basis(checks_first) == is_groebner_basis(s_pairs_first)
        for basis in (checks_first, s_pairs_first):
            assert (is_minimal_basis(basis), is_reduced_basis(basis)) == want, case.rules
        seen[want] += 1
    assert min(seen[True, True], seen[True, False], seen[False, False]) >= 100, seen


def test_structured_checks_keep_two_pairs_per_column_triple(monkeypatch):
    # On a structured family of m chain columns, m = n - 1 open and n
    # closed, criteria M and F keep 2 * C(m, 3) pairs, the Eagon-Northcott
    # count of first syzygies; the all-pairs loop met 212 and 324 at
    # (3,4,10), i = 5.  A kept pair that one rule joins is settled by a
    # lookup; the rest reach meet, pinned as totals over a sample of the
    # certify box, every i.
    kept, met = [], []
    real_kept, real_meet = groebner._kept_pairs, groebner.meet
    monkeypatch.setattr(groebner, "_kept_pairs",
                        lambda *args: kept.append(real_kept(*args)) or kept[-1])
    monkeypatch.setattr(groebner, "meet", lambda *args: met.append(args) or real_meet(*args))
    totals = Counter()
    box = list(itertools.product(range(1, 9), range(2, 7), range(7, 11)))
    for a, b, n in [(3, 4, 10), *random.Random(20214).sample(box, 8)]:
        for i in range(1, n + 1):
            for closed, m in ((False, n - 1), (True, n)):
                kept.clear()
                met.clear()
                assert is_groebner_basis(structured_basis(InstanceParams(a, b, n), i, closed))
                assert len(kept[0]) == 2 * comb(m, 3), (a, b, n, i, closed)
                totals[closed] += len(kept[0])
                totals[closed, "met"] += len(met)
    assert totals == {False: 8008, (False, "met"): 563, True: 11974, (True, "met"): 1419}


def test_raw_output_has_no_superseded_rule(monkeypatch):
    # Inputs enter the queue at the weight of their lead, so on input
    # homogeneous for the order's first row no lead of the raw output
    # divides another: on the acceptance grid's minor families at every
    # order index, on the homogeneous random ideals and on the elimination
    # run of every toric ideal in the sweep box.
    for a, b, n in itertools.product(range(1, 6), range(2, 6), range(4, 8)):
        p = InstanceParams(a, b, n)
        for family in (minors_closed_chain, minors_open_chain):
            for i in range(1, n + 1):
                gb = buchberger(family(p), build_order_i(generators(p), i))
                assert is_minimal_basis(gb), (family.__name__, a, b, n, i)
    for gens, order, _ in _random_ideals():
        assert is_minimal_basis(buchberger(gens, order)), gens

    runs = _recorded_runs(monkeypatch)
    for a, b, n in itertools.product(range(1, 9), range(2, 7), range(4, 7)):
        runs.clear()
        toric_ideal(scalar_grading(InstanceParams(a, b, n)))
        assert is_minimal_basis(runs[0]), (a, b, n)


def _tuple_minimal_leads(elements, order):
    # the distinct leads that no other lead divides, listed canonically
    leads = {g.plus for g in elements if not g.is_zero()}
    return sorted((p for p in leads if not any(q != p and divides(q, p) for q in leads)),
                  key=order.sort_key())


def test_reduce_gb_matches_tuple_minimalization():
    # Raw buchberger output padded with zero elements, duplicates,
    # multiples of its elements and elements with the same lead and a tail
    # one rewrite step away, either way, still below the lead, then
    # shuffled: the reduced basis keeps exactly the minimal leads and does
    # not depend on the padding.
    rng = random.Random(20213)
    dropped = retailed = 0
    for gens, order, _ in _random_ideals():
        run = buchberger(gens, order)
        raw, want = list(run.elements), reduce_gb(run).elements
        stepped = []
        for g, h in itertools.product(raw, repeat=2):
            for u, v in ((h.plus, h.minus), (h.minus, h.plus)):
                if divides(u, g.minus):
                    q = tuple(e - a + b for e, a, b in zip(g.minus, u, v))
                    if order.compare(g.plus, q) > 0:
                        stepped.append(Binomial(g.plus, q))
        retailed += len(stepped)
        for _ in range(3):
            padded = raw + stepped + rng.sample(raw, rng.randint(0, len(raw)))
            padded += [Binomial.from_vector((0,) * order.nvars)] * rng.randint(0, 2)
            for g in rng.sample(raw, min(len(raw), rng.randint(0, 2))):
                m = tuple(rng.randint(0, 2) for _ in range(order.nvars))
                padded.append(Binomial(tuple(map(sum, zip(g.plus, m))),
                                       tuple(map(sum, zip(g.minus, m)))))
            rng.shuffle(padded)
            gb = reduce_gb(GroebnerBasis(tuple((pack(g.plus), pack(g.minus)) for g in padded),
                                         order))
            leads = _tuple_minimal_leads(padded, order)
            assert [g.plus for g in gb] == leads
            assert is_minimal_basis(gb) and is_reduced_basis(gb)
            assert gb.elements == want
            dropped += len({g.plus for g in padded if not g.is_zero()}) > len(leads)
    assert dropped >= 50
    assert retailed >= 50, retailed


def test_cross_check_against_sympy():
    sympy = pytest.importorskip("sympy")
    params = InstanceParams(3, 3, 4)
    xs = sympy.symbols("x1 x2 x3 x4")

    def to_expr(g):
        e = sympy.Integer(1)
        f = sympy.Integer(1)
        for x, p in zip(xs, g.plus):
            e *= x**p
        for x, p in zip(xs, g.minus):
            f *= x**p
        return e - f

    minors = minors_closed_chain(params)
    other = sympy.groebner([to_expr(g) for g in minors], *xs, order="grevlex")

    order = build_order_i(generators(params), 2)
    mine = groebner_reduced(minors, order)

    # same ideal seen from two independent implementations
    for g in mine:
        assert other.reduce(to_expr(g))[1] == 0
    for expr in other.exprs:
        assert _member(_binomial_of(expr, xs, sympy), mine)


def _fresh_index(gb):
    return RuleIndex(gb.order.nvars, [r for r in gb.rules if r[0] != r[1]])


def _minor_runs(ns=range(4, 9)):
    # the open and closed minors under every build_order_i order
    for a, b, n in itertools.product((1, 2, 5), (2, 3, 5), ns):
        p = InstanceParams(a, b, n)
        for family in (minors_open_chain, minors_closed_chain):
            gens = family(p)
            for i in range(1, n + 1):
                yield buchberger(gens, build_order_i(generators(p), i))


def test_the_run_index_is_the_basis_index():
    # buchberger hands its run index over as the basis's index, which
    # lists exactly the nonzero rules in rule order and holds the pattern
    # lists the run built, each as a fresh index of those rules has it
    ideals = [*_random_ideals(), *_random_inhomogeneous_ideals()]
    runs = [buchberger(gens, order) for gens, order, _ in ideals]
    patterns = 0
    for gb in [*runs, *_minor_runs(range(4, 7))]:
        index = vars(gb)["index"]  # handed over, not derived on read
        fresh = _fresh_index(gb)
        assert index.rules == fresh.rules
        assert [rule for rule, _ in index.rules] == list(gb.rules)
        assert (index.guard, index.ones, index.mask) == (fresh.guard, fresh.ones, fresh.mask)
        for pattern in list(index):
            assert index[pattern] == fresh[pattern]
            patterns += 1
    assert patterns >= 1000, patterns


def test_reduce_gb_on_the_run_index_matches_a_basis_without_one(monkeypatch):
    # The tails are normal-formed on the run index, which may hold rules
    # that minimality drops; a basis of the same rules with no run index
    # gives byte-identical rules: on the random ideals, the minors under
    # every order at n = 4..8 and the toric elimination runs on the
    # acceptance grid, one-row and two-row gradings
    dropped = 0
    runs = [buchberger(gens, order) for gens, order, _ in
            [*_random_ideals(), *_random_inhomogeneous_ideals()]]
    for gb in runs:
        want = reduce_gb(GroebnerBasis(gb.rules, gb.order))
        assert "index" not in vars(GroebnerBasis(gb.rules, gb.order))
        assert reduce_gb(gb).rules == want.rules, gb.rules
        dropped += len(want) < len(gb)
    assert dropped >= 10, dropped
    for gb in _minor_runs():
        assert reduce_gb(gb).rules == reduce_gb(GroebnerBasis(gb.rules, gb.order)).rules
    elim = _recorded_runs(monkeypatch)
    for a, b, n in itertools.product(range(1, 6), range(2, 6), range(4, 8)):
        p = InstanceParams(a, b, n)
        for grading in (scalar_grading(p), projective_grading(p)):
            elim.clear()
            toric_ideal(grading)
            gb = elim[0]
            assert reduce_gb(gb).rules == reduce_gb(GroebnerBasis(gb.rules, gb.order)).rules


def test_prop_gb1_builds_no_binomial_and_two_indexes(monkeypatch, capsys):
    # the engine reads the minors as (plus, minus) tuples and reduce_gb
    # reuses the run index: the structured basis's index and the run's
    built, indexes = [], []
    check, init = Binomial.__post_init__, RuleIndex.__init__
    monkeypatch.setattr(Binomial, "__post_init__", lambda self: built.append(1) or check(self))
    monkeypatch.setattr(binomials.RuleIndex, "__init__",
                        lambda self, *args: indexes.append(1) or init(self, *args))
    argv = ["verify", "--claim", "prop-gb1", "--i", "5", "--a", "3", "--b", "4", "--n", "10"]
    assert cli.main(argv) == 0
    assert "pass" in capsys.readouterr().out
    assert (len(built), len(indexes)) == (0, 2)
    families.minors_open_chain(InstanceParams(3, 4, 10))  # the counter works
    assert len(built) == 36


def test_buchberger_reads_plus_minus_pairs():
    # tuples give the rules, inputs and trace lines their Binomials give
    for gens, order, _ in [*_random_ideals(), *_random_inhomogeneous_ideals()]:
        pairs = [(g.plus, g.minus) for g in gens]
        seen, got = [], []
        want = buchberger(gens, order, seen.append)
        gb = buchberger(pairs, order, got.append)
        assert (gb.rules, gb.inputs, got) == (want.rules, want.inputs, seen)
    # a pair with equal sides is skipped, and still holds its position
    order = build_order_i((2, 1, 1), 3)
    gens = [((1, 0, 0), (0, 1, 0)), ((1, 0, 1), (0, 2, 0))]
    want = buchberger(gens, order)
    lines = []
    gb = buchberger([((0, 1, 1), (0, 1, 1)), *gens], order, lines.append)
    assert gb.rules == want.rules
    assert gb.inputs == tuple(k + 1 for k in want.inputs)
    assert not any(line.startswith("input 0 ") for line in lines)


@pytest.mark.parametrize("pair", [
    ((1, 0, 0), (0, 1, 0, 0)),  # short plus side
    ((0, 1, 0, 0), (1, 0, 0)),  # short minus side
    ((0, 1, 0, 0), (1, 0, 0, 0, 0)),  # long minus side
    ((1, 0, 0, 0, 0), (0, 1, 0, 0)),  # long plus side
    ((0, 0, 0), (0, 0, 0)),  # equal sides are checked too
], ids=["short-plus", "short-minus", "long-minus", "long-plus", "equal-short"])
def test_a_pair_side_of_the_wrong_length_is_a_count_mismatch(pair):
    order = build_order_i((1, 2, 3, 4), 1)
    good = ((0, 1, 0, 0), (2, 0, 0, 0))
    for gens in ([pair], [good, pair]):
        for call in (buchberger, groebner_reduced):
            with pytest.raises(ValueError, match="variable count mismatch with order matrix"):
                call(gens, order)
