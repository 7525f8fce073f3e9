"""Minor families, structured generating sets, relation matrices."""

import functools
import hashlib
import itertools
import random
from collections import Counter
from math import comb, gcd
from operator import mul, sub

import pytest

from repunit_toric import cli, families
from repunit_toric.binomials import (
    Binomial,
    ExponentOverflowError,
    Grading,
    format_binomial,
    pack,
    unpack,
)
from repunit_toric.families import (
    chain_minors,
    minor_words,
    minors_closed_chain,
    minors_open_chain,
    projective_grading,
    projective_relation_matrix,
    scalar_grading,
    structured_basis,
    structured_family,
    toric_basis,
    toric_ideal,
    weight_relation_matrix,
)
from repunit_toric.fibers import rule_words, word_splits
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
from repunit_toric.intlinalg import kernel_basis, rank, row_hnf
from repunit_toric.orders import MatrixOrder, build_order_i, five_variable_order
from repunit_toric.semigroup import InstanceParams, gcd_of_generators, generators


def test_gradings():
    p = InstanceParams(3, 2, 4)
    assert scalar_grading(p).rows == ((15, 18, 24, 36),)
    assert projective_grading(p).rows == ((0, 1, 3, 7), (1, 1, 1, 1))
    # semigroup weights decompose over the two projective rows
    assert all(
        3 * r + 15 * s == w
        for r, s, w in zip((0, 1, 3, 7), (1, 1, 1, 1), (15, 18, 24, 36))
    )


def test_open_chain_minors_frozen():
    fam = minors_open_chain(InstanceParams(1, 2, 4))
    assert [format_binomial(g) for g in fam] == [
        "x1^2*x3 - x2^3",
        "x1^2*x4 - x2*x3^2",
        "x2^2*x4 - x3^3",
    ]


def test_closed_chain_minors_frozen():
    fam = minors_closed_chain(InstanceParams(1, 2, 4))
    assert set(fam) == {
        Binomial((2, 0, 1, 0), (0, 3, 0, 0)),
        Binomial((2, 0, 0, 1), (0, 1, 2, 0)),
        Binomial((0, 2, 0, 1), (0, 0, 3, 0)),
        Binomial((4, 0, 0, 0), (0, 1, 0, 2)),
        Binomial((2, 2, 0, 0), (0, 0, 1, 2)),
        Binomial((2, 0, 2, 0), (0, 0, 0, 3)),
    }


def test_minor_counts_and_degenerate_cases():
    for a, b, n in itertools.product((1, 3), (2, 4), range(2, 8)):
        p = InstanceParams(a, b, n)
        assert len(minors_open_chain(p)) == comb(n - 1, 2)
        assert len(minors_closed_chain(p)) == comb(n, 2)
    p2 = InstanceParams(1, 3, 2)
    assert minors_open_chain(p2) == ()
    assert minors_closed_chain(p2) == (Binomial((5, 0), (0, 4)),)


def test_families_and_relation_matrices_pinned():
    # sha256 over the repr of both minor families, every structured part for
    # every i, and both relation matrices where defined, on a 1..8, b 1..6,
    # n 2..10: any change to an element, its orientation or the listing order
    # changes the digest
    lines = []
    for a, b, n in itertools.product(range(1, 9), range(1, 7), range(2, 11)):
        p = InstanceParams(a, b, n)
        vals = [minors_open_chain(p), minors_closed_chain(p)]
        vals += [structured_family(p, i, part) for i in range(1, n + 1) for part in (1, 2, 3, 4)]
        if n >= 3:
            vals.append(weight_relation_matrix(p))
        if n >= 4:
            vals.append(projective_relation_matrix(p))
        lines.append(f"{a} {b} {n}: {vals!r}")
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "36238f39f922ed1e0affcf347be7e33393fd46573e659569ceb9ec6163857362"


def test_minor_words_pinned():
    # sha256 over the repr of minor_words for both chains on a 1..8, b 1..6,
    # n 2..10: any change to a degree, a word, an orientation or the order
    # changes the digest
    text = "\n".join(repr(minor_words(InstanceParams(a, b, n), closed))
                     for a, b, n in itertools.product(range(1, 9), range(1, 7), range(2, 11))
                     for closed in (True, False))
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "316de140c147bc343909282a8696917dffefa52b9e75aff1fcf76968291ec52d"


def test_minor_words_pack_each_column_once(monkeypatch):
    # every minor is two additions of column words: one minor_words call
    # packs the top and bottom of each column the chain uses, all n for
    # the closed chain and the first n - 1 for the open one, and nothing else
    packed = []

    def counted(m):
        packed.append(m)
        return pack(m)

    monkeypatch.setattr(families, "pack", counted)
    for a, b, n in itertools.product((1, 4), (2, 5), range(2, 9)):
        p = InstanceParams(a, b, n)
        for closed in (True, False):
            packed.clear()
            words = minor_words(p, closed)
            assert len(words) == comb(n if closed else n - 1, 2)
            assert len(packed) == 2 * (n if closed else n - 1), (a, b, n, closed)


def test_minor_family_checks_catch_a_bad_minor(monkeypatch):
    # Repeats are checked over each whole family, then homogeneity once per
    # minor: the open-chain minors under both gradings when the open
    # family is built, the closing minors under the weights when the closed
    # family adds them.  Each fault enters at _minor, the one place a
    # minor's two sides are formed, as two words, from two columns of the
    # matrix; column n is the closing column.
    p = InstanceParams(2, 3, 5)
    minor = families._minor
    x1 = pack((1, 0, 0, 0, 0))

    def side_times_x1(at):
        def patched(tops, bots, j, k):
            u, v = minor(tops, bots, j, k)
            return (u + x1, v) if (j, k) == at else (u, v)
        return patched

    # the oracle's packed minors come from the same words and the same checks
    closed_builds = (minors_closed_chain, functools.partial(minor_words, closed=True))
    open_builds = (minors_open_chain, functools.partial(minor_words, closed=False))

    monkeypatch.setattr(families, "_minor", side_times_x1((3, 5)))
    for build in closed_builds:
        with pytest.raises(AssertionError, match="closed-chain: inhomogeneous minor x1\\^4"):
            build(p)
    monkeypatch.setattr(families, "_minor", lambda tops, bots, j, k: (
        minor(tops, bots, 1, k) if k == 5 else minor(tops, bots, j, k)))
    for build in closed_builds:
        with pytest.raises(AssertionError, match="closed-chain: repeated minors"):
            build(p)
    # every closing minor is the (1, n) minor times x1: repeated and off the
    # weights, and repeats are checked first
    times_x1 = side_times_x1((1, 5))
    monkeypatch.setattr(families, "_minor", lambda tops, bots, j, k: (
        times_x1(tops, bots, 1, k) if k == 5 else minor(tops, bots, j, k)))
    for build in closed_builds:
        with pytest.raises(AssertionError, match="closed-chain: repeated minors"):
            build(p)
    # an open-chain minor times x1 is off both gradings
    monkeypatch.setattr(families, "_minor", side_times_x1((1, 2)))
    for build in open_builds + closed_builds:
        with pytest.raises(AssertionError, match="open-chain: inhomogeneous minor"):
            build(p)
    # x1^a2 - x2^a1 is homogeneous for the weights, not for the projective grading
    w = generators(p)
    swap = (pack((w[1], 0, 0, 0, 0)), pack((0, w[0], 0, 0, 0)))
    monkeypatch.setattr(families, "_minor", lambda tops, bots, j, k: (
        swap if (j, k) == (1, 2) else minor(tops, bots, j, k)))
    for build in open_builds:
        with pytest.raises(AssertionError, match="open-chain: inhomogeneous minor"):
            build(p)
    monkeypatch.setattr(families, "_minor", minor)
    assert len(minors_closed_chain(p)) == comb(5, 2)
    assert len(minor_words(p, closed=True)) == comb(5, 2)


@pytest.mark.parametrize("a,b,n", [(1, 1, 2), (2, 1, 3), (3, 1, 5), (1, 2, 2), (2, 3, 3),
                                   (1, 2, 4), (3, 2, 6)])
def test_minors_match_sympy_determinants(a, b, n):
    # the paper's 2 x n matrix written out as a sympy Matrix, its 2 x 2
    # determinants expanded by sympy: the same minors up to sign, with no
    # code shared with families
    sympy = pytest.importorskip("sympy")
    xs = sympy.symbols(f"x1:{n + 1}")
    mat = sympy.Matrix([[xs[t] ** b for t in range(n)],
                        [*xs[1:], xs[0] ** (a + 1)]])

    def canonical_minors(cols):
        out = set()
        for j, k in itertools.combinations(cols, 2):
            terms = sympy.Poly(sympy.expand(mat[:, [j, k]].det()), *xs).terms()
            assert sorted(c for _, c in terms) == [-1, 1]
            out.add(Binomial(*(m for m, _ in terms)).canonical())
        return out

    p = InstanceParams(a, b, n)
    open_set = canonical_minors(range(n - 1))
    assert len(open_set) == comb(n - 1, 2)
    assert set(minors_open_chain(p)) == open_set
    assert set(minors_closed_chain(p)) == canonical_minors(range(n))


def test_structured_parts_partition_the_minors():
    for a, b, n in [(1, 2, 5), (2, 3, 6), (3, 2, 4)]:
        p = InstanceParams(a, b, n)
        open_set = {g.canonical() for g in minors_open_chain(p)}
        closed_set = {g.canonical() for g in minors_closed_chain(p)}
        for i in range(1, n + 1):
            parts = [structured_family(p, i, t) for t in (1, 2, 3, 4)]
            sizes = [len(x) for x in parts]
            assert sizes == [
                comb(n - i, 2),
                comb(i - 1, 2),
                (i - 1) * (n - i),
                n - 1,
            ]
            assert {g.canonical() for g in structured_basis(p, i, False).elements} == open_set
            assert {g.canonical() for g in structured_basis(p, i, True).elements} == closed_set
            flat = [g for part in parts for g in part]
            assert len(set(flat)) == len(flat)


def test_minor_builders_past_the_exponent_limit_raise_as_a_binomial_would():
    # the first exponent past 2^31 - 1 that a Binomial of the chain's minors
    # would meet: x1^(a+b+1) in the minor on columns 1 and n for the closed
    # chain; x1^b, then x2^(b+1), in the minor on columns 1 and 2 for the
    # open one, which never reads a.  Every structured family raises as the
    # plain family of its chain.
    limit = 2**31 - 1
    for (a, b, n), closed_raises, open_raises in [
            ((3 * 10**9, 2, 4), 3000000003, None),
            ((1, limit, 4), 2147483649, 2147483648),
            ((1, 3 * 10**9, 5), 3000000002, 3000000000),
            ((limit - 1, 1, 3), 2147483648, None)]:
        p = InstanceParams(a, b, n)
        for closed, exponent in ((True, closed_raises), (False, open_raises)):
            family = minors_closed_chain if closed else minors_open_chain
            whole = [family, functools.partial(minor_words, closed=closed)]
            whole += [functools.partial(structured_basis, i=i, closed=closed)
                      for i in range(1, n + 1)]
            parts = [functools.partial(structured_family, i=i, part=part)
                     for i in range(1, n + 1) for part in ((4,) if closed else (1, 2, 3))]
            if exponent is not None:
                for build in whole + parts:
                    with pytest.raises(ExponentOverflowError,
                                       match=f"^exponent {exponent} exceeds {limit}$"):
                        build(p)
            else:
                assert {len(build(p)) for build in whole} == {comb(n - 1, 2)}
                assert sum(len(build(p)) for build in parts) == n * comb(n - 1, 2)
                assert family(p)[0] == Binomial((b, 0, 1) + (0,) * (n - 3),
                                                (0, b + 1) + (0,) * (n - 2))


def test_structured_part4_frozen():
    assert structured_family(InstanceParams(1, 2, 4), 2, 4) == (
        Binomial((4, 0, 0, 0), (0, 1, 0, 2)),
        Binomial((0, 0, 1, 2), (2, 2, 0, 0)),
        Binomial((0, 0, 0, 3), (2, 0, 2, 0)),
    )
    with pytest.raises(ValueError):
        structured_family(InstanceParams(1, 2, 4), 0, 4)
    with pytest.raises(ValueError):
        structured_family(InstanceParams(1, 2, 4), 2, 5)


def test_structured_basis_keeps_the_sides_it_packs():
    # the (lead, tail) sides the rules are packed from are the basis's
    # sides, equal to its rules unpacked and to the structured parts in
    # turn, 1..3 open and 1..4 closed, on the acceptance grid, every i
    for a, b, n in itertools.product(range(1, 6), range(2, 6), range(4, 8)):
        p = InstanceParams(a, b, n)
        for i in range(1, n + 1):
            for closed, parts in ((False, (1, 2, 3)), (True, (1, 2, 3, 4))):
                basis = structured_basis(p, i, closed)
                sides = vars(basis)["sides"]  # handed over, not unpacked on read
                assert sides == tuple((unpack(x, n), unpack(y, n)) for x, y in basis.rules)
                assert sides == tuple((g.plus, g.minus) for part in parts
                                      for g in structured_family(p, i, part))


def test_structured_orientation_is_leading():
    for a, b, n in [(1, 2, 5), (4, 3, 4)]:
        p = InstanceParams(a, b, n)
        w = generators(p)
        for i in range(1, n + 1):
            order = build_order_i(w, i)
            for g in structured_basis(p, i, True).elements:
                assert order.compare(g.plus, g.minus) > 0


def test_projective_relation_matrix():
    sympy = pytest.importorskip("sympy")
    mat = projective_relation_matrix(InstanceParams(1, 2, 4))
    assert mat == ((2, -1, -2, 1), (0, 2, -3, 1))
    with pytest.raises(ValueError):
        projective_relation_matrix(InstanceParams(1, 2, 3))
    # rows span the full kernel of the two grading rows; by sympy, with no
    # intlinalg: both grading rows annihilate every row, and the trailing
    # (n-2) x (n-2) block has determinant 1.  Each row is u - v of the
    # checked open-chain minor on its columns, (t, t+2) then (n-2, n-1).
    for b, n in [(1, 5), (2, 4), (3, 5), (4, 6)]:
        p = InstanceParams(1, b, n)
        mat = projective_relation_matrix(p)
        minors = dict(zip(itertools.combinations(range(1, n), 2), chain_minors(p, False)))
        pairs = [(t, t + 2) for t in range(1, n - 2)] + [(n - 2, n - 1)]
        assert mat == tuple(tuple(map(sub, *minors[j, k][1:3])) for j, k in pairs)
        kernel = kernel_basis(projective_grading(p).rows)
        assert row_hnf(mat) == row_hnf(kernel)
        rows = sympy.Matrix(mat)
        assert sympy.Matrix(projective_grading(p).rows) * rows.T == sympy.zeros(2, n - 2)
        assert rows[:, 2:].det() == 1


def test_weight_relation_matrix():
    sympy = pytest.importorskip("sympy")
    mat = weight_relation_matrix(InstanceParams(1, 2, 3))
    assert mat == ((2, -3, 1), (2, 2, -3))
    with pytest.raises(ValueError):
        weight_relation_matrix(InstanceParams(1, 2, 2))
    # full weight kernel exactly in the coprime case; by sympy, with no
    # intlinalg: the weights annihilate every row, and the minor deleting
    # column c is +-a_c, gcd > 1 included ((3, 2, 4) has gcd 3).  Each row
    # is u - v of the checked closed-chain minor on (t, t+1), the last one
    # the closing minor on (n-1, n).
    for a, b, n in [(2, 1, 5), (1, 2, 4), (2, 3, 5), (3, 2, 4), (5, 2, 4)]:
        p = InstanceParams(a, b, n)
        mat = weight_relation_matrix(p)
        pairs = [*itertools.combinations(range(1, n), 2), *((j, n) for j in range(1, n))]
        minors = dict(zip(pairs, chain_minors(p, True)))
        assert mat == tuple(tuple(map(sub, *minors[t, t + 1][1:3])) for t in range(1, n))
        w = generators(p)
        full = row_hnf(mat) == row_hnf(kernel_basis((w,)))
        assert full == (gcd_of_generators(p) == 1)
        rows = sympy.Matrix(mat)
        assert rows * sympy.Matrix(w) == sympy.zeros(n - 1, 1)
        minors = [abs(rows[:, [j for j in range(n) if j != c]].det()) for c in range(n)]
        assert minors == list(w)


def test_relation_matrices_past_the_exponent_limit_are_exact():
    # the rows are differences of chain_matrix columns as integer vectors,
    # never packed: at b = 2^31, where the chain's minor builders raise,
    # both matrices are exact
    p = InstanceParams(3 * 10**9, 2**31, 5)
    with pytest.raises(ExponentOverflowError):
        chain_minors(p, True)
    assert projective_relation_matrix(p) == (
        (2147483648, -1, -2147483648, 1, 0),
        (0, 2147483648, -1, -2147483648, 1),
        (0, 0, 2147483648, -2147483649, 1))
    assert weight_relation_matrix(p) == (
        (2147483648, -2147483649, 1, 0, 0),
        (0, 2147483648, -2147483649, 1, 0),
        (0, 0, 2147483648, -2147483649, 1),
        (3000000001, 0, 0, 2147483648, -2147483649))


def test_relation_matrix_checks_catch_a_bad_row(monkeypatch, capsys):
    # sub doubled acts in both column differences and in their difference,
    # so every relation row is 4 times itself and the rows span 4L, not the
    # kernel lattice L: each claim's relation-matrix sub-check fails and its
    # other sub-checks are still reported, a failed check (exit 1), not an
    # internal error (exit 3)
    real = families.sub
    for claim in ("cor-gb1", "cor-gb2"):
        argv = ["verify", "--claim", claim, "--a", "1", "--b", "3", "--n", "5"]
        assert cli.main(argv) == 0
        clean = capsys.readouterr().out.splitlines()
        monkeypatch.setattr(families, "sub", lambda x, y: 2 * real(x, y))
        assert cli.main(argv) == 1
        out, err = capsys.readouterr()
        assert err == ""
        lines = out.splitlines()
        assert lines[1].startswith(f"  [fail] {claim}: relation-matrix: ")
        assert lines[-1] == "overall: fail"
        assert [line.split(": ")[1] for line in lines[1:-1]] == [
            line.split(": ")[1] for line in clean[1:-1]]
        monkeypatch.undo()


def test_toric_ideal_route_matches_minors():
    p = InstanceParams(1, 2, 4)
    order = build_order_i(generators(p), 1)
    gb = toric_ideal(scalar_grading(p), order)
    assert is_minimal_basis(gb) and is_reduced_basis(gb)
    assert is_groebner_basis(gb)
    assert ideal_equal(gb, minors_closed_chain(p), order)


@functools.cache
def _saturated_kernel(grading):
    # the independent route: torus saturation of the kernel lattice ideal
    kernel = [Binomial.from_vector(r) for r in kernel_basis(grading.rows)]
    return tuple(saturate_torus(kernel, grading))


def _saturation_route(grading, order):
    return groebner_reduced(_saturated_kernel(grading), order).elements


# one-row gradings off the paper's family: one variable and all weights
# equal (the split's gcd is 0, so c = 1), a gcd > 1 shared by the relation's
# exponents, weights listed largest first, and repeated weights
EDGE_WEIGHTS = [(7,), (3, 3, 3), (4, 6, 10), (10, 6, 4), (2, 2, 5, 5)]


@pytest.mark.parametrize(
    "grading",
    [pytest.param(scalar_grading(InstanceParams(a, b, n)), id=f"scalar-{a}-{b}-{n}")
     for a in range(1, 6) for b in range(2, 6) for n in (4, 5)]
    + [pytest.param(projective_grading(InstanceParams(1, b, n)), id=f"projective-1-{b}-{n}")
       for b in (2, 3, 4) for n in (4, 5)]
    + [pytest.param(Grading.scalar(w), id="weights-" + "-".join(map(str, w)))
       for w in EDGE_WEIGHTS],
)
def test_toric_ideal_elimination_matches_saturation(grading):
    gb = toric_ideal(grading)
    assert gb.elements == _saturation_route(grading, gb.order)


NEGATIVE_GRADINGS = [((2, 3, 5, 7), (1, -1, 2, 0)), ((1, 1, 1, 1, 1), (0, 1, -2, 3, 1))]


@pytest.mark.parametrize("rows", NEGATIVE_GRADINGS)
def test_toric_ideal_of_grading_with_negative_entries(rows):
    grading = Grading(rows)
    order = build_order_i(grading.positive_row(), 1)
    gb = toric_ideal(grading, order)
    assert gb.elements
    assert all(grading.degree(g.plus) == grading.degree(g.minus) for g in gb)
    assert gb.elements == _saturation_route(grading, order)


def _random_orders(grading, count=2):
    # seeded full-rank orders whose positive first row lies outside the
    # grading's row space, so the elimination stack's dependent row is not
    # the order's first
    rng = random.Random(repr(grading.rows))
    n, r = grading.nvars, rank(grading.rows)
    out = []
    while len(out) < count:
        first = tuple(rng.randint(1, 6) for _ in range(n))
        if rank(grading.rows + (first,)) == r:
            continue
        rest = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n - 1))
        if rank((first,) + rest) == n:
            out.append(MatrixOrder((first,) + rest))
    return out


@pytest.mark.parametrize(
    "rows",
    list(dict.fromkeys(
        grading_of(InstanceParams(a, b, n)).rows
        for grading_of in (scalar_grading, projective_grading)
        for a in (1, 2, 3) for b in (2, 3, 4) for n in (4, 5)
    )) + NEGATIVE_GRADINGS,
)
def test_toric_ideal_matches_saturation_under_every_order(rows):
    grading = Grading(rows)
    n, pos = grading.nvars, grading.positive_row()
    orders = [build_order_i(pos, i) for i in range(1, n + 1)]
    if n == 5:
        orders.append(five_variable_order(pos))
    orders += _random_orders(grading)
    for order in orders:
        gb = toric_ideal(grading, order)
        assert is_minimal_basis(gb) and is_reduced_basis(gb)
        assert gb.order == order
        assert gb.elements == _saturation_route(grading, order), order.rows


def _random_gradings(count):
    # seeded gradings of 3..5 variables: a positive row, and half the time
    # a second row with entries of either sign
    rng = random.Random(20232)
    for _ in range(count):
        n = rng.randint(3, 5)
        rows = (tuple(rng.randint(1, 9) for _ in range(n)),)
        if rng.random() < 0.5:
            rows += (tuple(rng.randint(-3, 3) for _ in range(n)),)
        yield Grading(rows)


def test_common_factor_skip_keeps_every_elimination_run(monkeypatch):
    # toric_ideal's elimination run is done with and without the skip of
    # S-pairs whose sides share a variable: the number of rules and the
    # reduced basis must agree on the sweep box (order prec-1), on
    # projective gradings and on gradings with negative entries under
    # seeded orders
    seen = Counter()

    def both(gens, order, trace=None, *, saturated=False):
        assert saturated
        lines: list[str] = []
        skipping = buchberger(gens, order, lines.append, saturated=True)
        plain = buchberger(gens, order)
        assert len(skipping) == len(plain), order.rows
        assert reduce_gb(skipping).elements == reduce_gb(plain).elements, order.rows
        seen["runs"] += 1
        seen["common"] += sum(s.endswith("skipped: common factor") for s in lines)
        return skipping

    monkeypatch.setattr(families, "buchberger", both)
    for a, b, n in itertools.product(range(1, 9), range(2, 7), range(4, 7)):
        grading = scalar_grading(InstanceParams(a, b, n))
        toric_ideal(grading, build_order_i(grading.positive_row(), 1))
    for a, b, n in itertools.product(range(1, 4), range(2, 5), (4, 5)):
        toric_ideal(projective_grading(InstanceParams(a, b, n)))
    for grading in [*map(Grading, NEGATIVE_GRADINGS), *_random_gradings(30)]:
        for order in _random_orders(grading):
            toric_ideal(grading, order)
    assert seen["runs"] == 120 + 18 + 2 * 32
    assert seen["common"] > 10000, seen


def test_toric_runs_keep_their_queue_and_bases(monkeypatch):
    # sha256 of every elimination run on the sweep box (order prec-1) and
    # on the projective gradings (orders prec-1 and prec-n): the trace's
    # "->" lines, one per input and per queued pair in queue order, the
    # raw rules in insertion order and the reduced basis.  A change to the
    # pair update that queues another pair, or to the route from raw rules
    # to reduced basis, changes a digest; the skipped-pair lines may move.
    runs = []

    def recording(gens, order, trace=None, **kwargs):
        runs.append(buchberger(gens, order, trace, **kwargs))
        return runs[-1]

    monkeypatch.setattr(families, "buchberger", recording)
    cases = []
    for a, b, n in itertools.product(range(1, 9), range(2, 7), range(4, 7)):
        grading = scalar_grading(InstanceParams(a, b, n))
        cases.append((grading, build_order_i(grading.positive_row(), 1)))
    for b, n in itertools.product(range(2, 7), range(4, 7)):
        grading = projective_grading(InstanceParams(1, b, n))
        cases += [(grading, build_order_i(grading.positive_row(), i)) for i in (1, n)]
    queued, raw, reduced = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for grading, order in cases:
        runs.clear()
        lines: list[str] = []
        gb = toric_ideal(grading, order, lines.append)
        queued.update("\n".join(s for s in lines if " -> " in s).encode() + b"\n\n")
        raw.update(f"{runs[0].inputs}: {', '.join(map(format_binomial, runs[0]))}\n".encode())
        reduced.update((", ".join(map(format_binomial, gb)) + "\n").encode())
    assert len(cases) == 120 + 30
    assert [queued.hexdigest(), raw.hexdigest(), reduced.hexdigest()] == [
        "dc4ffc6ad3e61ed14bd1a0c175290b0635185a22e0fc075857c5d9b454dcc6be",
        "7cc40f94ba5195b6c8239b5bc5bf53f4a64764f0f3042889bca1078c15b7e730",
        "83d192ccf95b46457e002a610c002ab10296d2d4f59c811c3f8580c79677281a",
    ]


def test_common_factor_skip_needs_a_saturated_ideal():
    # The lattice ideal of the weight relations at (1,2,4) is not
    # saturated, and there the skip drops S-pairs that the Groebner basis
    # needs: under x4 cheapest the flagged run stops at 3 leads of the 7,
    # and its rules fail the exhaustive S-pair check.  Only toric_ideal,
    # whose ideal is prime, sets the flag.
    p = InstanceParams(1, 2, 4)
    gens = [Binomial.from_vector(r) for r in weight_relation_matrix(p)]
    order = build_order_i(generators(p), 4)
    plain = buchberger(gens, order)
    flagged = buchberger(gens, order, saturated=True)
    assert is_groebner_basis(plain)
    assert not is_groebner_basis(flagged)
    assert (len(reduce_gb(plain)), len(reduce_gb(flagged))) == (7, 3)


def _unreduced_route_cases():
    # the sweep box (order prec-1), then the projective gradings under their default order
    for a, b, n in itertools.product(range(1, 9), range(2, 7), range(4, 7)):
        grading = scalar_grading(InstanceParams(a, b, n))
        yield grading, build_order_i(grading.positive_row(), 1)
    for a, b, n in itertools.product(range(1, 4), range(2, 5), (4, 5)):
        yield projective_grading(InstanceParams(a, b, n)), None


def test_toric_basis_is_a_minimal_groebner_basis_that_reduces_to_toric_ideal():
    unreduced = 0
    for grading, order in _unreduced_route_cases():
        basis = toric_basis(grading, order)
        reduced = toric_ideal(grading, order)
        assert basis.order == reduced.order
        assert is_minimal_basis(basis), grading.rows
        assert is_groebner_basis(basis), grading.rows
        assert reduce_gb(basis).rules == reduced.rules, grading.rows
        unreduced += not is_reduced_basis(basis)
    # on some rows the run's tails are not normal forms, so the reduction is not idle
    assert unreduced > 0


def test_oracle_reads_the_same_splits_from_the_unreduced_basis():
    # minimal generator count and forced pairs are invariants of the ideal:
    # the same per degree over toric_basis's rules as over the reduced basis
    for grading, order in _unreduced_route_cases():
        n = grading.nvars
        basis = word_splits(rule_words(toric_basis(grading, order).rules, grading), n)
        reduced = word_splits(rule_words(toric_ideal(grading, order).rules, grading), n)
        assert list(basis) == list(reduced), grading.rows
        for d, split in basis.items():
            assert split.new_generators() == reduced[d].new_generators(), (grading.rows, d)
            assert split.forced_pairs() == reduced[d].forced_pairs(), (grading.rows, d)


def test_toric_ideal_runs_buchberger_once(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[1])
        return buchberger(*args, **kwargs)

    monkeypatch.setattr(families, "buchberger", counted)
    # a one-row grading eliminates one t, its second t being a variable of
    # least weight; a grading of d >= 2 rows eliminates one t per row
    one_row = [scalar_grading(InstanceParams(1, 2, 5)), *map(Grading.scalar, EDGE_WEIGHTS)]
    for grading in one_row:
        calls.clear()
        toric_ideal(grading)
        assert [order.nvars for order in calls] == [grading.nvars + 1]
    for grading in (projective_grading(InstanceParams(1, 2, 5)), *map(Grading, NEGATIVE_GRADINGS)):
        calls.clear()
        toric_ideal(grading)
        assert [order.nvars for order in calls] == [grading.nvars + len(grading.rows)]


def _rank_choice(rows):
    # the reference: keep a row when it raises the rank of the rows kept
    kept = []
    for row in rows:
        if rank([*kept, row]) > len(kept):
            kept.append(row)
    return kept


def test_order_stacks_with_dependent_rows_order_as_their_rank_raising_rows():
    # a row in the span of the rows above it is zero wherever they all are,
    # so inserting such rows anywhere below the first changes no comparison
    rng = random.Random(30)
    stacks = 0
    for grading in map(Grading, NEGATIVE_GRADINGS):
        n = grading.nvars
        for order in _random_orders(grading, count=6):
            for _ in range(4):
                stack = list(order.rows)
                for _ in range(rng.randint(1, 4)):
                    at = rng.randint(1, len(stack))
                    coeffs = [rng.randint(-3, 3) for _ in range(at)]
                    row = [sum(k * r[c] for k, r in zip(coeffs, stack)) for c in range(n)]
                    g = gcd(*row) or 1  # a rational combination, still in the span
                    stack.insert(at, tuple(x // g for x in row))
                square = MatrixOrder(tuple(_rank_choice(stack)))
                assert square.rows == order.rows
                tall = MatrixOrder(tuple(stack))
                assert tall.nvars == n and len(tall.rows) > n
                # every pair of equal first-row weight, where the lower rows
                # decide, and every pair with one of the first few monomials
                monos = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(60)]
                key = dict(zip(monos, map(tall.sort_key(), monos)))
                weight = {m: square.sort_key()(m)[0] for m in monos}
                pairs = [(u, v) for u, v in itertools.product(monos, repeat=2)
                         if weight[u] == weight[v]]
                for u, v in pairs + list(itertools.product(monos[:6], monos)):
                    want = square.compare(u, v)
                    assert tall.compare(u, v) == want, (stack, u, v)
                    assert (key[u] > key[v]) - (key[u] < key[v]) == want, (stack, u, v)
                stacks += 1
    assert stacks == 2 * 6 * 4


@pytest.mark.parametrize("rows", [((2, 3, 5, 7),), ((2, 3, 5, 7), (1, -1, 2, 0))])
def test_toric_ideal_rejects_an_order_of_another_variable_count(rows):
    grading = Grading(rows)
    for n in (3, 5):
        order = build_order_i(tuple(range(1, n + 1)), 1)
        with pytest.raises(ValueError, match=f"^order has {n} variables, grading has 4$"):
            toric_ideal(grading, order)


def test_toric_ideal_membership_oracle():
    # a binomial lies in the toric ideal exactly when its two monomials
    # share a weight, so exhaustive small fibers certify completeness
    p = InstanceParams(1, 2, 4)
    w = generators(p)
    grading = scalar_grading(p)
    gb = toric_ideal(grading)
    for g in gb:
        assert grading.degree(g.plus) == grading.degree(g.minus)
    by_weight: dict[int, list[tuple[int, ...]]] = {}
    for e in itertools.product(range(4), repeat=4):
        by_weight.setdefault(sum(map(mul, w, e)), []).append(e)
    checked = 0
    for monos in by_weight.values():
        for u, v in itertools.combinations(monos, 2):
            f = Binomial(u, v)
            assert ideal_equal(gb.elements, [*gb.elements, f], gb.order)
            checked += 1
    assert checked > 100


def test_projective_toric_ideal_matches_open_minors():
    p = InstanceParams(1, 2, 5)
    grading = projective_grading(p)
    order = build_order_i(grading.positive_row(), 1)
    gb = toric_ideal(grading, order)
    assert ideal_equal(gb, minors_open_chain(p), order)


def test_toric_ideal_bases_pinned():
    # sha256 of every formatted reduced basis in the box, under the orders
    # with x1 and with xn cheapest: any change to a basis element, its
    # orientation or the listing order changes the digest
    lines = []
    for a, b, n in itertools.product(range(1, 5), range(2, 5), range(4, 7)):
        grading = scalar_grading(InstanceParams(a, b, n))
        for i in (1, n):
            gb = toric_ideal(grading, build_order_i(grading.positive_row(), i))
            lines.append(f"{a} {b} {n} {i}: " + ", ".join(map(format_binomial, gb)))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "ab0f481cad25a4829a96dcc7883c313d666bba3f918e7c26c11ece7acc512b6b"


def _one_t_route(grading, order):
    # the independent reference: eliminate one t of weight w_i from the
    # x_i - t^(w_i), with the t-free monomials ordered by w and then order
    n, w = grading.nvars, grading.rows[0]
    gens = [Binomial(tuple(int(j == i) for j in range(n)) + (0,), (0,) * n + (w[i],))
            for i in range(n)]
    rows = [w + (1,), (0,) * n + (1,)]
    for row in order.rows:
        if rank([*rows, row + (0,)]) > len(rows):
            rows.append(row + (0,))
    elim = buchberger(gens, MatrixOrder(tuple(rows)))
    kept = [(pack(g.plus[:n]), pack(g.minus[:n])) for g in elim if not any(g.plus[n:])]
    return reduce_gb(GroebnerBasis(tuple(kept), order))


@pytest.mark.parametrize("a,b,n", list(itertools.product(range(1, 9), range(2, 7), range(4, 7))))
def test_toric_ideal_via_projective_grading_matches_single_t(a, b, n):
    # the weights are a * repunit row + r_b(n) * ones row, so toric_ideal
    # eliminates t_1 through the projective grading and its relation;
    # the reduced basis is that of one t of weight a_i, gcd > 1 rows included
    grading = scalar_grading(InstanceParams(a, b, n))
    for i in (1, n):
        order = build_order_i(grading.positive_row(), i)
        gb = toric_ideal(grading, order)
        one_t = _one_t_route(grading, order)
        assert is_minimal_basis(gb) and is_reduced_basis(gb)
        assert list(map(format_binomial, gb)) == list(map(format_binomial, one_t))
