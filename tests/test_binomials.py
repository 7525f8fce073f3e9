"""Monomial arithmetic, binomial objects and gradings."""

import enum
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repunit_toric.binomials import (
    EXPONENT_LIMIT,
    Binomial,
    ExponentOverflowError,
    Grading,
    RuleIndex,
    format_binomial,
    format_monomial,
    guard_bits,
    meet,
    monomial,
    normal_form,
    pack,
    packed_lcm,
    unpack,
)
from repunit_toric.orders import build_order_i

# entries at both ends of a packed field
edge_exps = st.tuples(*[st.one_of(
    st.integers(min_value=0, max_value=3),
    st.sampled_from((EXPONENT_LIMIT - 1, EXPONENT_LIMIT)),
)] * 4)


def oriented(f, order):
    # f with its order-larger side as plus
    return f if order.compare(f.plus, f.minus) > 0 else f.opposite()


def divides(u, v):
    # u divides v entrywise
    return all(a <= b for a, b in zip(u, v))


def _support_pattern(m):
    # the support pattern RuleIndex computes for a lead m
    return RuleIndex(len(m), [(pack(m), 0)]).rules[0][1]


def test_monomial_basics():
    m = monomial((1, 0, 2, 0))
    assert unpack(pack(m) + pack((0, 0, 0, 0)), 4) == m
    assert unpack(packed_lcm(pack((1, 0, 2, 0)), pack((0, 3, 1, 0)), guard_bits(4)), 4) == (
        1, 3, 2, 0)
    assert divides((0, 1, 1, 0), (2, 1, 3, 0))
    assert not divides((0, 2, 0, 0), (0, 1, 5, 5))
    assert not _support_pattern((1, 0, 2, 0)) & _support_pattern((0, 4, 0, 1))
    assert _support_pattern((1, 0, 2, 0)) & _support_pattern((0, 0, 1, 0))


@given(edge_exps, edge_exps)
def test_pack_is_additive(u, v):
    assert unpack(pack(u) | guard_bits(4), 4) == u
    # a sum of two in-range exponents fits its field, carry bit included
    assert unpack(pack(u) + pack(v), 4) == tuple(a + b for a, b in zip(u, v))


@given(edge_exps, edge_exps)
def test_divides_iff_packed_subtraction_keeps_guards(u, v):
    guard = guard_bits(4)
    assert divides(u, v) == (((pack(v) | guard) - pack(u)) & guard == guard)


def _random_edge_monomial(rng, nvars):
    return tuple(rng.choice((0, 0, 1, 2, 3, EXPONENT_LIMIT - 1, EXPONENT_LIMIT))
                 for _ in range(nvars))


def test_packed_lcm_and_divisibility_match_tuples():
    # Differential test against plain tuple arithmetic, with fields at 0
    # and at the limit, equal fields, and one operand divisible by the other.
    rng = random.Random(20212)
    for _ in range(2000):
        nvars = rng.randint(1, 12)
        guard = guard_bits(nvars)
        u = _random_edge_monomial(rng, nvars)
        v = rng.choice((
            _random_edge_monomial(rng, nvars),
            u,
            tuple(rng.choice((e, rng.randint(e, EXPONENT_LIMIT))) for e in u),
            tuple(rng.choice((e, rng.randint(0, e))) for e in u),
        ))
        pu, pv = pack(u), pack(v)
        want = tuple(max(a, b) for a, b in zip(u, v))
        assert unpack(packed_lcm(pu, pv, guard), nvars) == want, (u, v)
        assert packed_lcm(pu, pv, guard) == packed_lcm(pv, pu, guard) == pack(want)
        for p, q in ((u, v), (v, u)):
            divides_ref = all(a <= b for a, b in zip(p, q))
            assert (((pack(q) | guard) - pack(p)) & guard == guard) == divides_ref, (p, q)
            if divides_ref:
                assert pack(p) <= pack(q)
        assert (_support_pattern(u) & _support_pattern(v) == 0) == all(
            a == 0 or b == 0 for a, b in zip(u, v))


def test_exponent_overflow_guard():
    big = EXPONENT_LIMIT
    monomial((big, 0))  # at the limit is fine
    with pytest.raises(ExponentOverflowError):
        monomial((big + 1, 0))
    with pytest.raises(ExponentOverflowError):
        # an unchecked product past the limit, as an S-pair side can be
        normal_form(pack((big, 0)) + pack((1, 0)), RuleIndex(2))
    with pytest.raises(ValueError):
        monomial((-1, 0))


def _unit(nvars, k, e=1):
    # x_k^e in nvars variables, k counted from 1
    return tuple(e if v == k else 0 for v in range(1, nvars + 1))


@pytest.mark.parametrize("nvars", [2, 14])
def test_rewriting_overflow_names_the_whole_monomial(nvars):
    # the wide field is the last one, where a message cut to n - 1 entries
    # would drop it
    past = _unit(nvars, nvars, EXPONENT_LIMIT + 1)
    message = re.escape(f"rewrite to {past} exceeds {EXPONENT_LIMIT}")
    # an input past the limit, with no rule to apply
    with pytest.raises(ExponentOverflowError, match=f"^{message}$"):
        normal_form(pack(_unit(nvars, nvars, EXPONENT_LIMIT)) + pack(_unit(nvars, nvars)),
                    RuleIndex(nvars))
    # a rewrite x1 -> x_n that takes x_n past the limit, on either chain of meet
    index = RuleIndex(nvars, [(pack(_unit(nvars, 1)), pack(_unit(nvars, nvars)))])
    start = pack(_unit(nvars, 1)) + pack(_unit(nvars, nvars, EXPONENT_LIMIT))
    other = pack(_unit(nvars, 2))
    with pytest.raises(ExponentOverflowError, match=f"^{message}$"):
        normal_form(start, index)
    for x, y in ((start, other), (other, start)):
        with pytest.raises(ExponentOverflowError, match=f"^{message}$"):
            meet(x, y, index)


@pytest.mark.parametrize("nvars", range(15))
def test_pack_round_trips_at_every_width(nvars):
    rng = random.Random(nvars)
    edge = (0, 1, EXPONENT_LIMIT)
    cases = [(e,) * nvars for e in edge]
    cases += [tuple(rng.choice(edge) for _ in range(nvars)) for _ in range(40)]
    guard = guard_bits(nvars)
    for u in cases:
        assert unpack(pack(u), nvars) == u
        # guard bits are ignored
        assert unpack(pack(u) | guard, nvars) == u
        for v in cases[:8]:
            # a field sum past the limit keeps its carry bit
            assert unpack(pack(u) + pack(v), nvars) == tuple(map(sum, zip(u, v)))


@given(st.integers(min_value=0, max_value=14).flatmap(lambda n: st.tuples(
    *[st.lists(st.sampled_from((0, 1, 2, EXPONENT_LIMIT - 1, EXPONENT_LIMIT)),
               min_size=n, max_size=n).map(tuple)] * 2)))
def test_packed_order_is_reverse_lex(uv):
    # the int order of packed words compares the last variable first
    u, v = uv
    assert (pack(u) < pack(v)) == (u[::-1] < v[::-1])
    assert (pack(u) == pack(v)) == (u == v)


class _Small(enum.IntEnum):
    TWO = 2


@pytest.mark.parametrize("exponents, error, message", [
    ((True, 0), ValueError, "exponent must be an int, got True"),
    ((0, False), ValueError, "exponent must be an int, got False"),
    ((1.0, 0), ValueError, "exponent must be an int, got 1.0"),
    ((2, "3"), ValueError, "exponent must be an int, got '3'"),
    ((0, -1), ValueError, "exponent must be >= 0, got -1"),
    ((EXPONENT_LIMIT + 1, 0), ExponentOverflowError,
     f"exponent {EXPONENT_LIMIT + 1} exceeds {EXPONENT_LIMIT}"),
    # the first bad entry in order decides
    ((EXPONENT_LIMIT + 1, -1), ExponentOverflowError, f"exponent {EXPONENT_LIMIT + 1} exceeds"),
    ((-1, EXPONENT_LIMIT + 1), ValueError, "exponent must be >= 0, got -1"),
    ((1.5, -1), ValueError, "exponent must be an int, got 1.5"),
    ((e for e in (1, -2)), ValueError, "exponent must be >= 0, got -2"),
    ([3, True], ValueError, "exponent must be an int, got True"),
])
def test_monomial_rejects_at_the_boundaries(exponents, error, message):
    with pytest.raises(error) as info:
        monomial(exponents)
    assert type(info.value) is error
    assert str(info.value).startswith(message)


def test_monomial_accepts_at_the_boundaries():
    assert monomial(()) == ()
    assert monomial((0, EXPONENT_LIMIT)) == (0, EXPONENT_LIMIT)
    assert monomial((EXPONENT_LIMIT - 1,)) == (EXPONENT_LIMIT - 1,)
    assert monomial(e for e in (1, 0, 2)) == (1, 0, 2)
    assert monomial([4, 5]) == (4, 5)
    # an IntEnum member is an int that is not a bool: kept as given
    m = monomial((_Small.TWO, 1))
    assert m == (2, 1) and type(m) is tuple and type(m[0]) is _Small
    for given in ((EXPONENT_LIMIT, 0, 3), [1, 2], range(3)):
        assert type(monomial(given)) is tuple


def test_binomial_construction():
    f = Binomial((2, 0, 1, 0), (0, 3, 0, 0))
    assert f.nvars == 4
    assert not f.is_zero()
    assert f.opposite() == Binomial((0, 3, 0, 0), (2, 0, 1, 0))
    assert Binomial.from_vector((0, 0, 0)).is_zero()
    assert Binomial.from_vector((2, -3, 1, 0)) == f
    with pytest.raises(ValueError):
        Binomial((1, 2), (1, 2))
    with pytest.raises(ValueError):
        Binomial((1, 2), (1, 2, 3))


def test_canonical_orientation():
    f = Binomial((0, 3, 0, 0), (2, 0, 1, 0))
    g = f.canonical()
    assert g.plus == (2, 0, 1, 0)
    assert g == f.opposite().canonical()
    assert g.canonical() == g


def test_grading_degrees():
    w = Grading.scalar((15, 18, 24, 36))
    assert w.degree((0, 3, 0, 0)) == (54,)
    two = Grading(((0, 1, 3, 7), (1, 1, 1, 1)))
    assert two.degree((0, 0, 1, 0)) == (3, 1)
    assert two.positive_row() == (1, 1, 1, 1)
    assert w.degree((0, 1, 0, 1)) == w.degree((0, 3, 0, 0))
    assert w.degree((1, 0, 0, 0)) != w.degree((0, 1, 0, 0))
    with pytest.raises(ValueError):
        Grading(((1, 0), (0, -1)))
    with pytest.raises(ValueError):
        w.degree((1, 0))


def test_grading_rejects_non_int_entries():
    for bad in (1.5, True, "2"):
        with pytest.raises(ValueError, match="grading entry must be an int, got " + repr(bad)):
            Grading.scalar((bad, 2))
        with pytest.raises(ValueError, match="grading entry must be an int"):
            Grading(((1, 1), (0, bad)))


def test_oriented_uses_order():
    order = build_order_i((15, 18, 24, 36), 1)
    f = Binomial((0, 3, 0, 0), (2, 0, 1, 0))
    g = oriented(f, order)
    # weights: 54 vs 54 + 24 = ... recompute: x1^2 x3 = 30 + 24 = 54, tie broken
    # by the cheapness rows, x1 cheapest so the x1-free side leads
    assert g.plus == (0, 3, 0, 0)
    assert oriented(g, order) == g


def _normal_form(m, rules):
    # normal_form on tuples: pack the input and rules, unpack the result
    index = RuleIndex(len(m), [(pack(p), pack(q)) for p, q in rules])
    return unpack(normal_form(pack(m), index), len(m))


def test_reduce_monomial_single_rule():
    order = build_order_i((15, 18, 24, 36), 1)
    rule = oriented(Binomial((0, 1, 2, 0), (2, 0, 0, 1)), order)
    assert rule.plus == (0, 1, 2, 0)
    assert _normal_form((0, 2, 2, 0), [(rule.plus, rule.minus)]) == (2, 1, 0, 1)
    assert _normal_form((5, 0, 1, 0), [(rule.plus, rule.minus)]) == (5, 0, 1, 0)


def _reference_chain(m, rules):
    # Plain tuple rewriting, first applicable rule, then restart: the chain
    # from m, and whether it goes past the limit.
    chain = []
    while max(m) <= EXPONENT_LIMIT:
        chain.append(m)
        for p, q in rules:
            if all(a <= b for a, b in zip(p, m)):
                m = tuple(b - a + c for a, b, c in zip(p, m, q))
                break
        else:
            return chain, False
    return chain, True


def _reference_normal_form(m, rules):
    chain, past_limit = _reference_chain(m, rules)
    if past_limit:
        raise ExponentOverflowError(m)
    return chain[-1]


def _deglex_key(m):
    return (sum(m), m)


def _random_rules(rng, nvars):
    # x1 is a wide variable: leads hold 0 or an entry at the limit, tails
    # hold 0.  x2 is a sink: leads hold 0, tails may add 1, so a rewrite
    # can push it past the limit.  Every rule is oriented by deglex on
    # x3.., so each rewrite moves that part strictly down and all
    # rewriting terminates.
    rules = []
    count = rng.randint(1, 8)
    while len(rules) < count:
        u = tuple(rng.randint(0, 2) for _ in range(nvars - 2))
        v = tuple(rng.randint(0, 2) for _ in range(nvars - 2))
        if u == v:
            continue
        if _deglex_key(u) < _deglex_key(v):
            u, v = v, u
        wide = rng.choice((0, 0, EXPONENT_LIMIT - 1, EXPONENT_LIMIT))
        rules.append(((wide, 0) + u, (0, rng.randint(0, 1)) + v))
    return rules


def _random_monomials(rng, nvars, rules):
    edge = (0, 1, EXPONENT_LIMIT - 1, EXPONENT_LIMIT)
    out = []
    for _ in range(12):
        m = [rng.choice(edge), rng.choice(edge)]
        m += [rng.randint(0, 4) for _ in range(nvars - 2)]
        out.append(tuple(m))
    for p, _ in rules:
        # equal to a lead in every coordinate, then one below it in one
        # coordinate: the two sides of the borrow boundary
        out.append(p)
        k = rng.randrange(nvars)
        if p[k]:
            out.append(p[:k] + (p[k] - 1,) + p[k + 1:])
        out.append(tuple(e + rng.randint(0, 1) if e < EXPONENT_LIMIT else e for e in p))
    return out


def test_normal_form_matches_tuple_rewriting():
    # One index grows a rule at a time and is queried between additions,
    # so pattern lists built early must pick up every later rule.
    rng = random.Random(20211)
    for _ in range(300):
        nvars = rng.randint(3, 6)
        rules = _random_rules(rng, nvars)
        monomials = _random_monomials(rng, nvars, rules)
        index = RuleIndex(nvars)
        for k, (p, q) in enumerate(rules, start=1):
            index.add(pack(p), pack(q))
            for m in monomials:
                try:
                    want = _reference_normal_form(m, rules[:k])
                except ExponentOverflowError:
                    with pytest.raises(ExponentOverflowError):
                        normal_form(pack(m), index)
                    continue
                assert unpack(normal_form(pack(m), index), nvars) == want, (m, rules[:k])


def _pairs(rng, rules, monomials):
    # random pairs of monomials, the S-pair sides of random pairs of rules
    # (one-step rewrites of the lcm of their leads, which often meet), and
    # sums of two monomials, whose fields may lie past the limit
    out = [(rng.choice(monomials), rng.choice(monomials)) for _ in range(12)]
    for _ in range(6):
        (p1, q1), (p2, q2) = rng.choice(rules), rng.choice(rules)
        lcm = tuple(map(max, p1, p2))
        out.append((tuple(l - a + c for l, a, c in zip(lcm, p1, q1)),
                    tuple(l - a + c for l, a, c in zip(lcm, p2, q2))))
    for _ in range(4):
        u, v, w = (rng.choice(monomials) for _ in range(3))
        out.append((tuple(map(sum, zip(u, v))), w))
    return out


def test_meet_matches_normal_form():
    # On the same 300 seeded rule lists: meet's two results are equal
    # exactly when the two normal forms are, and are those normal forms
    # when they differ.  It raises only where normal_form raises on a side,
    # always on an input past the limit, and otherwise returns only a
    # monomial that both chains reach before either goes past the limit.
    rng = random.Random(20211)
    pick = random.Random(20214)
    seen = Counter()
    for _ in range(300):
        nvars = rng.randint(3, 6)
        rules = _random_rules(rng, nvars)
        monomials = _random_monomials(rng, nvars, rules)
        index = RuleIndex(nvars, [(pack(p), pack(q)) for p, q in rules])
        for u, v in _pairs(pick, rules, monomials):
            x, y = pack(u), pack(v)
            try:
                nf = (normal_form(x, index), normal_form(y, index))
            except ExponentOverflowError:
                nf = None
            try:
                got = meet(x, y, index)
            except ExponentOverflowError:
                assert nf is None, (u, v, rules)
                seen["raised"] += 1
                continue
            assert max(u + v) <= EXPONENT_LIMIT, (u, v, rules)
            if nf is None:
                # an overflow past the meeting point is never reached
                assert got[0] == got[1], (u, v, rules)
                (cu, _), (cv, _) = _reference_chain(u, rules), _reference_chain(v, rules)
                assert unpack(got[0], nvars) in set(cu) & set(cv), (u, v, rules)
                seen["met before an overflow"] += 1
            elif nf[0] == nf[1]:
                assert got[0] == got[1], (u, v, rules)
                seen["met"] += 1
            else:
                assert got == nf, (u, v, rules)
                seen["apart"] += 1
    assert min(seen["raised"], seen["met"], seen["apart"]) >= 300, seen
    assert seen["met before an overflow"] > 0, seen


def test_normal_form_raises_past_the_limit():
    # x3 -> x2 applied to x2^LIMIT * x3 needs x2^(LIMIT + 1)
    with pytest.raises(ExponentOverflowError):
        _normal_form((0, EXPONENT_LIMIT, 1), [((0, 0, 1), (0, 1, 0))])
    # landing exactly on the limit is fine
    assert _normal_form((0, EXPONENT_LIMIT - 1, 1), [((0, 0, 1), (0, 1, 0))]) == (
        0, EXPONENT_LIMIT, 0)


def test_reduce_binomial_to_zero():
    order = build_order_i((15, 18, 24, 36), 1)
    rule = oriented(Binomial((0, 1, 2, 0), (2, 0, 0, 1)), order)
    f = Binomial((1, 1, 2, 0), (3, 0, 0, 1))  # x1 times the rule
    rules = [(rule.plus, rule.minus)]
    assert _normal_form(f.plus, rules) == _normal_form(f.minus, rules)


def test_formatting():
    assert format_monomial((2, 0, 0, 1)) == "x1^2*x4"
    assert format_monomial((0, 0, 0, 0)) == "1"
    assert format_binomial(Binomial((2, 0, 1, 0), (0, 3, 0, 0))) == "x1^2*x3 - x2^3"
    assert format_binomial(Binomial.from_vector((0, 0, 0, 0))) == "0"
    assert str(Binomial((1, 0), (0, 2))) == "x1 - x2^2"
