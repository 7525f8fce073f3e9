"""Buchberger closure, reduction, saturation.

The crafted fixtures here were worked out by hand; the family-level checks
lean on the constructors from families.py.
"""

import hashlib
import itertools
import random
from collections import Counter

import pytest

from repunit_toric import families
from repunit_toric.binomials import (
    EXPONENT_LIMIT,
    Binomial,
    ExponentOverflowError,
    Grading,
    divides,
    is_homogeneous,
)
from repunit_toric.families import (
    minors_closed_chain,
    minors_open_chain,
    projective_grading,
    scalar_grading,
    structured_closed_family,
    structured_open_family,
    toric_ideal,
)
from repunit_toric.groebner import (
    GroebnerBasis,
    buchberger,
    groebner_reduced,
    ideal_equal,
    ideal_member,
    is_groebner_basis,
    is_minimal_basis,
    is_reduced_basis,
    reduce_gb,
    saturate_torus,
    saturate_variable,
)
from repunit_toric.orders import MatrixOrder, build_order_i
from repunit_toric.semigroup import InstanceParams, generators


def oriented(f, order):
    # f with its order-larger side as plus
    return f if order.compare(f.plus, f.minus) > 0 else f.opposite()


def test_single_generator_is_its_own_basis():
    order = build_order_i((15, 18, 24, 36), 1)
    g = oriented(Binomial((0, 3, 0, 0), (2, 0, 1, 0)), order)
    gb = buchberger([g], order)
    assert gb.elements == (g,)
    assert is_groebner_basis(gb.elements, order)


def test_buchberger_closes_a_gap():
    order = build_order_i((2, 1, 1), 3)
    f1 = oriented(Binomial((1, 0, 0), (0, 1, 0)), order)
    f2 = oriented(Binomial((1, 0, 1), (0, 2, 0)), order)
    assert f1.plus == (1, 0, 0) and f2.plus == (1, 0, 1)
    assert not is_groebner_basis((f1, f2), order)
    gb = buchberger([f1, f2], order)
    assert is_groebner_basis(gb.elements, order)
    assert Binomial((0, 2, 0), (0, 1, 1)) in gb.elements
    red = reduce_gb(gb)
    # ascending leads: x2^2 precedes x1 because x1 carries weight 2
    assert red.elements == (
        Binomial((0, 2, 0), (0, 1, 1)),
        Binomial((1, 0, 0), (0, 1, 0)),
    )
    assert red.minimal and red.reduced


def test_is_groebner_rejects_misoriented_input():
    order = build_order_i((2, 1, 1), 3)
    wrong = Binomial((0, 1, 0), (1, 0, 0))  # lead sits on the minus side
    with pytest.raises(ValueError):
        is_groebner_basis((wrong,), order)


def test_reduced_basis_ignores_generator_shuffles():
    params = InstanceParams(1, 2, 5)
    order = build_order_i(generators(params), 2)
    gens = list(minors_closed_chain(params).binomials)
    reference = groebner_reduced(gens, order).elements
    rng = random.Random(7)
    for _ in range(5):
        rng.shuffle(gens)
        assert groebner_reduced(gens, order).elements == reference


def test_structured_family_flags():
    params = InstanceParams(3, 3, 4)
    closed = structured_closed_family(params, 2)
    order = build_order_i(generators(params), 2)
    assert is_groebner_basis(closed, order)
    assert is_minimal_basis(closed)
    assert not is_reduced_basis(closed)
    opened = structured_open_family(params, 2)
    assert is_groebner_basis(opened, order)
    assert is_reduced_basis(opened)


def test_membership_and_ideal_equality():
    params = InstanceParams(1, 2, 4)
    order = build_order_i(generators(params), 1)
    minors = minors_closed_chain(params).binomials
    gb = groebner_reduced(toric_ideal(scalar_grading(params)), order)
    for g in minors:
        assert ideal_member(g, gb)
    assert not ideal_member(Binomial((1, 0, 0, 0), (0, 1, 0, 0)), gb)
    assert ideal_equal(minors, tuple(reversed(minors)), order)

    noncoprime = InstanceParams(3, 2, 4)
    order2 = build_order_i(generators(noncoprime), 1)
    assert not ideal_equal(
        toric_ideal(scalar_grading(noncoprime)),
        minors_closed_chain(noncoprime).binomials,
        order2,
    )


def test_groebner_preserves_homogeneity():
    for a, b, n in [(2, 3, 4), (1, 2, 5)]:
        params = InstanceParams(a, b, n)
        w = scalar_grading(params)
        proj = projective_grading(params)
        for i in (1, n):
            order = build_order_i(generators(params), i)
            gb = buchberger(minors_open_chain(params).binomials, order)
            for g in gb:
                assert is_homogeneous(w, g)
                assert is_homogeneous(proj, g)


def test_saturate_variable_strips_cofactor():
    grading = Grading.scalar((1, 1, 1))
    gens = [Binomial((1, 1, 0), (1, 0, 1))]  # x1*(x2 - x3)
    sat = saturate_variable(gens, 1, grading)
    assert sat == [Binomial((0, 1, 0), (0, 0, 1))]
    with pytest.raises(ValueError):
        saturate_variable(gens, 4, grading)


def test_saturate_torus_fixes_saturated_ideal():
    params = InstanceParams(1, 2, 5)
    grading = projective_grading(params)
    minors = minors_open_chain(params).binomials
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
        is_groebner_basis([f1, f2], order)


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
    assert lines == [
        "pair (0,1) lcm=x1*x3 -> x2^2 - x2*x3",
        "pair (0,2) lcm=x1*x2^2 skipped: coprime leads",
        "pair (1,2) lcm=x1*x2^2*x3 skipped: coprime leads",
    ]

    lines.clear()
    toric_ideal(scalar_grading(InstanceParams(1, 2, 4)), trace=lines.append)
    assert lines[0] == "elimination run over x1..x5, where x5 = t_1"
    assert _pair_outcomes(lines[1:]) == {"added": 13, "zero": 26, "M": 35, "F": 5, "coprime": 57}


def test_retired_rules_leave_the_rewrite_rules():
    # x2 - x1 comes last and its lead divides the leads of all three
    # earlier inputs, which retire.  Had they stayed among the rules that
    # rewrite S-pair sides, a retired rule, inserted earlier, would rewrite
    # a side of pair (2,3) first, and its remainder would be
    # x1^2*x3^4 - x1^8*x3^2.
    order = build_order_i((1, 1, 3), 1)
    gens = [Binomial((3, 2, 3), (4, 4, 2)), Binomial((4, 2, 4), (3, 3, 4)),
            Binomial((0, 2, 4), (1, 4, 3)), Binomial((1, 0, 0), (0, 1, 0))]
    lines: list[str] = []
    gb = buchberger(gens, order, trace=lines.append)
    assert lines == [
        "pair (1,2) lcm=x1^3*x2^3*x3^4 skipped: criterion M",
        "pair (2,3) lcm=x2^2*x3^4 -> x1^2*x3^4 - x1^5*x3^3",
        "pair (3,4) lcm=x1^2*x2*x3^4 skipped: coprime leads",
        "pair (0,3) lcm=x1^3*x2^2*x3^3 -> x1^5*x3^3 - x1^8*x3^2",
        "pair (3,5) lcm=x1^5*x2*x3^3 skipped: coprime leads",
        "pair (0,2) lcm=x1^3*x2^2*x3^4 -> 0",
        "pair (4,5) lcm=x1^5*x3^4 -> 0",
        "pair (0,1) lcm=x1^3*x2^3*x3^4 -> 0",
    ]
    assert sorted(map(str, gb)) == [
        "x1^2*x3^4 - x1^5*x3^3", "x1^5*x3^3 - x1^8*x3^2", "x2 - x1"]


def _pair_outcomes(lines):
    outcomes = Counter()
    for s in lines:
        if s.endswith("skipped: coprime leads"):
            outcomes["coprime"] += 1
        elif s.endswith("skipped: criterion M"):
            outcomes["M"] += 1
        elif s.endswith("skipped: criterion F"):
            outcomes["F"] += 1
        elif s.endswith("-> 0"):
            outcomes["zero"] += 1
        else:
            assert " -> " in s
            outcomes["added"] += 1
    return outcomes


@pytest.mark.parametrize("abn, counts, digest", [
    ((2, 3, 5), {"added": 37, "zero": 164, "M": 430, "F": 12, "coprime": 218},
     "ea30096a2e3c21b4fd17dbff269907a38a77e580de877b6d85f57667271970d3"),
    ((5, 6, 6), {"added": 167, "zero": 1614, "M": 11716, "F": 277, "coprime": 1104},
     "77594567faf7a13246dc1d8d1594e44ea007478f125f28f21595d638df12fb9f"),
], ids=["2-3-5", "5-6-6"])
def test_trace_pins_toric_run_outcomes(abn, counts, digest):
    # Every pair keeps its outcome line; the sorted digest allows the
    # skipped-pair lines of one insertion to come in any order.
    lines: list[str] = []
    toric_ideal(scalar_grading(InstanceParams(*abn)), trace=lines.append)
    assert _pair_outcomes(lines[1:]) == counts
    assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == digest


def _recorded_runs(monkeypatch):
    # the raw buchberger result of each later toric_ideal call, in order
    runs = []

    def recording(gens, order, trace=None):
        runs.append(buchberger(gens, order, trace))
        return runs[-1]

    monkeypatch.setattr(families, "buchberger", recording)
    return runs


def test_trace_pins_a_run_whose_inputs_retire(monkeypatch):
    # The (2,3,5) weights listed largest first: each input lead t^w
    # divides the one inserted before it, so four input rules retire while
    # pairs they made are still queued.  The whole trace is pinned in order,
    # so every rewrite after the retirements is checked step by step.
    runs = _recorded_runs(monkeypatch)
    grading = Grading.scalar(tuple(reversed(generators(InstanceParams(2, 3, 5)))))
    lines: list[str] = []
    toric_ideal(grading, trace=lines.append)
    counts = _pair_outcomes(lines[1:])
    assert counts == {"added": 36, "zero": 157, "M": 322, "F": 1, "coprime": 154}
    assert grading.nvars + counts["added"] - len(runs[0]) == 4
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "34187aa0acf5c084680d2781f0fc327c4bbd916585c133510fa3db560a21724a")


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
        assert is_minimal_basis(family) == minimal, family
        assert is_reduced_basis(family) == reduced, family
        seen[minimal, reduced] += 1
    assert min(seen[True, True], seen[True, False], seen[False, False]) >= 50, seen
    mixed = [Binomial((1, 0), (0, 1)), Binomial((1, 0, 0), (0, 0, 1))]
    for check in (is_minimal_basis, is_reduced_basis):
        with pytest.raises(ValueError):
            check(mixed)


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


def test_random_homogeneous_ideals_against_sympy():
    sympy = pytest.importorskip("sympy")
    for gens, order, shuffled in _random_ideals():
        xs = sympy.symbols(f"x1:{order.nvars + 1}")

        def to_expr(g):
            return sympy.Mul(*(x**p for x, p in zip(xs, g.plus))) - sympy.Mul(
                *(x**p for x, p in zip(xs, g.minus))
            )

        gb = groebner_reduced(gens, order)
        assert is_groebner_basis(gb.elements, order)
        assert is_reduced_basis(gb.elements)
        other = sympy.groebner([to_expr(g) for g in gens], *xs, order="grevlex")
        for g in gb:
            assert other.reduce(to_expr(g))[1] == 0
        for expr in other.exprs:
            assert ideal_member(_binomial_of(expr, xs, sympy), gb)
        for g in gens:
            assert ideal_member(g, gb)
        assert groebner_reduced(shuffled, order).elements == gb.elements


def test_raw_buchberger_output_is_a_groebner_basis(monkeypatch):
    # The pair criteria may only skip pairs whose S-binomials reduce to
    # zero; the exhaustive check sees every pair of the unreduced output.
    for gens, order, _ in _random_ideals():
        assert is_groebner_basis(buchberger(gens, order).elements, order)

    runs = _recorded_runs(monkeypatch)
    for a, b, n in itertools.product(range(1, 4), range(2, 5), range(4, 6)):
        runs.clear()
        toric_ideal(scalar_grading(InstanceParams(a, b, n)))
        elim = runs[0]
        assert is_groebner_basis(elim.elements, elim.order)


def _tuple_minimal_leads(elements, order):
    # the distinct leads that no other lead divides, listed canonically
    leads = {g.plus for g in elements if not g.is_zero()}
    return sorted((p for p in leads if not any(q != p and divides(q, p) for q in leads)),
                  key=order.sort_key())


def test_reduce_gb_matches_tuple_minimalization():
    # Raw buchberger output padded with zero elements, duplicates and
    # multiples of its elements, then shuffled: the reduced basis keeps
    # exactly the minimal leads and does not depend on the padding.
    rng = random.Random(20213)
    dropped = 0
    for gens, order, _ in _random_ideals():
        raw = list(buchberger(gens, order).elements)
        want = reduce_gb(GroebnerBasis(tuple(raw), order)).elements
        for _ in range(3):
            padded = raw + rng.sample(raw, rng.randint(0, len(raw)))
            padded += [Binomial.from_vector((0,) * order.nvars)] * rng.randint(0, 2)
            for g in rng.sample(raw, min(len(raw), rng.randint(0, 2))):
                m = tuple(rng.randint(0, 2) for _ in range(order.nvars))
                padded.append(Binomial(tuple(map(sum, zip(g.plus, m))),
                                       tuple(map(sum, zip(g.minus, m)))))
            rng.shuffle(padded)
            gb = reduce_gb(GroebnerBasis(tuple(padded), order))
            leads = _tuple_minimal_leads(padded, order)
            assert [g.plus for g in gb] == leads
            assert gb.minimal and gb.reduced and is_reduced_basis(gb.elements)
            assert gb.elements == want
            dropped += len({g.plus for g in padded if not g.is_zero()}) > len(leads)
    assert dropped >= 50


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

    minors = minors_closed_chain(params).binomials
    other = sympy.groebner([to_expr(g) for g in minors], *xs, order="grevlex")

    order = build_order_i(generators(params), 2)
    mine = groebner_reduced(minors, order)

    # same ideal seen from two independent implementations
    for g in mine:
        assert other.reduce(to_expr(g))[1] == 0
    for expr in other.exprs:
        assert ideal_member(_binomial_of(expr, xs, sympy), mine)
