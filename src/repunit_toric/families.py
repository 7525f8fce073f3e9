"""Named matrices, minor families, and toric ideals of one instance (a, b, n).

Variables x_1 .. x_n carry the semigroup weights; the two-row grading stacks
the repunit row (r_b(0), ..., r_b(n-1)) over the all-ones row.  The minor
families, the structured families and the rows of the kernel-lattice
matrices all come from 2 x 2 minors of the paper's one 2 x n monomial
matrix, chain_matrix, whose first n - 1 columns are the open chain.  Each
column the chain uses is packed once, and one helper, _minor, forms every
chain minor as two additions of those words.  The loop that forms a
family's minors checks it, on their unpacked sides, and each minor is
returned as a Binomial or, by minor_words, as the words _minor formed with
the degree its homogeneity check computed, the fiber oracle's input.  The
structured families are that checked list, each minor led by the side of
its column ranked higher cyclically from column i; structured_basis hands
their words to the GroebnerBasis that groebner's basis checks read.
The relation rows and lemma3's sides come from the same helper on the
columns as exponent vectors, exact for every a and b.  The relation rows
are small integer bases whose saturations recover the toric ideals.  The toric ideal
itself comes from one elimination Buchberger run under the requested order,
independent of those saturations, so the two routes cross-check each other.
A one-row grading w is split into two t's: with m = min(w) and
c = gcd(w_i - m), x_i -> t^(w_i) factors through the domain k[t^c, t^m],
which for the paper's weights is k[t^a, t^r_b(n)]; far fewer rules are kept
than with one t.  The t of weight m is a variable of least weight, so the
run eliminates t_1 alone.  toric_basis returns the run's t-free rules, a
minimal Groebner basis left unreduced, which the fiber oracle reads, as
minimal generator count and uniqueness are invariants of the ideal;
toric_ideal reduces it, for every caller that compares or lists reduced
bases.
"""

from __future__ import annotations

from math import comb, gcd
from operator import add, itemgetter, mul, sub

from .binomials import (
    FIELD_BITS,
    Binomial,
    Grading,
    Monomial,
    format_binomial,
    format_monomial,
    monomial,
    pack,
    unpack,
)
from .groebner import GroebnerBasis, TraceFn, buchberger, reduce_gb
from .orders import MatrixOrder, _unit_negative_row, build_order_i
from .semigroup import InstanceParams, generators, repunit


def scalar_grading(params: InstanceParams) -> Grading:
    """One-row grading by the semigroup generators."""
    return Grading.scalar(generators(params))


def projective_grading(params: InstanceParams) -> Grading:
    """Two-row grading: repunit row over the all-ones row.

    Column i is (r_b(i-1), 1); the semigroup weights are the combination
    a * row1 + r_b(n) * row2 of the two rows.
    """
    return Grading((_repunit_row(params), (1,) * params.n))


def _repunit_row(params: InstanceParams) -> tuple[int, ...]:
    return tuple([repunit(params.b, i) for i in range(params.n)])


def _mono(n: int, *factors: tuple[int, int]) -> Monomial:
    """Monomial from (variable index, power) factors; repeats accumulate."""
    e = [0] * n
    for var, power in factors:
        e[var - 1] += power
    return tuple(e)


def chain_matrix(params: InstanceParams) -> tuple[tuple[Monomial, Monomial], ...]:
    """The paper's 2 x n monomial matrix as n (top, bottom) columns.

    Column t < n is (x_t^b ; x_(t+1)) and the closing column n is
    (x_n^b ; x_1^(a+1)); the open chain is the first n - 1 columns.
    """
    n, b, a = params.n, params.b, params.a
    cols = [(_mono(n, (t, b)), _mono(n, (t + 1, 1))) for t in range(1, n)]
    cols.append((_mono(n, (n, b)), _mono(n, (1, a + 1))))
    return tuple(cols)


class _Exponents(tuple):
    """An exponent vector whose + adds entry by entry, as + on packed words adds field by field."""

    __slots__ = ()

    def __add__(self, other: tuple) -> "_Exponents":
        return _Exponents(map(add, self, other))


def _column_vectors(params: InstanceParams) -> tuple[list, list]:
    # chain_matrix's tops and bottoms as exponent vectors, exact for every a and b
    cols = chain_matrix(params)
    return [_Exponents(top) for top, _ in cols], [_Exponents(bot) for _, bot in cols]


def _column_words(params: InstanceParams, closed: bool) -> tuple[list, list]:
    """The tops and bottoms of the columns the chain uses, each packed once, for _minor.

    No chain minor has an exponent above those of the one on columns 1 and
    n (closed) or 1 and 2 (open), checked first as a Binomial is: past
    EXPONENT_LIMIT the first exponent over raises, and within it no field
    of a packed sum carries.
    """
    cols = chain_matrix(params)[:params.n if closed else params.n - 1]
    if len(cols) > 1:  # the open chain of n = 2 has no minor
        (top_1, bot_1), (top_k, bot_k) = cols[0], cols[-1 if closed else 1]
        monomial(tuple(map(add, top_1, bot_k)))
        monomial(tuple(map(add, bot_1, top_k)))
    return [pack(top) for top, _ in cols], [pack(bot) for _, bot in cols]


def _minor(tops: list, bots: list, j: int, k: int) -> tuple:
    # the minor on columns j < k, top_j * bot_k - bot_j * top_k: every chain
    # minor is formed here, as two additions of column words or vectors
    return tops[j - 1] + bots[k - 1], bots[j - 1] + tops[k - 1]


def _chain_pairs(n: int, closed: bool) -> list[tuple[int, int]]:
    # the columns j < k of each chain minor as chain_minors lists them
    pairs = [(j, k) for j in range(1, n - 1) for k in range(j + 1, n)]
    return pairs + [(j, n) for j in range(1, n)] if closed else pairs


def chain_minors(params: InstanceParams, closed: bool) -> list[tuple]:
    """Every chain minor, formed and checked once, as (degree, plus, minus, plus word, minus word).

    The open chain's minors, then for the closed chain each column with
    column n, from one set of column words.  The plus side top_j * bot_k
    is the larger: it has x_j^b, or x_1^(a+1) on a closing minor, and the
    minus side bot_j * top_k no variable below x_(j+1).  The loop that
    forms the minors checks each family as its last minor joins: repeats
    over the family so far, then homogeneity of its own minors, read from
    their unpacked sides.  A minor's degree is the one that check computes.
    """
    n = params.n
    tops, bots = _column_words(params, closed)
    pairs = _chain_pairs(n, closed)
    m = comb(n - 1, 2)
    # w = a * r + r_b(n) * 1 with a >= 1, so (w, 1) and the projective rows
    # (r, 1) have one kernel: an open minor homogeneous for either pair is
    # homogeneous for both gradings; a closing minor is checked under w alone
    row = generators(params) if closed else _repunit_row(params)
    fam: list[tuple] = []
    bad = None
    for t, (j, k) in enumerate(pairs, 1):
        p, q = _minor(tops, bots, j, k)
        u, v = unpack(p, n), unpack(q, n)
        if t <= m:
            d, e = (sum(map(mul, row, u)), sum(u)), (sum(map(mul, row, v)), sum(v))
        else:
            d, e = (sum(map(mul, row, u)),), (sum(map(mul, row, v)),)
        if bad is None and d != e:
            bad = u, v
        fam.append((d, u, v, p, q))
        if t == m or t == len(pairs):  # the open chain's last minor, or the closed chain's
            name = "open-chain" if t == m else "closed-chain"
            if len({x[3:] for x in fam}) != t:
                raise AssertionError(f"{name}: repeated minors")
            if bad:
                raise AssertionError(f"{name}: inhomogeneous minor "
                                     f"{format_monomial(bad[0])} - {format_monomial(bad[1])}")
    return fam


def minors_open_chain(params: InstanceParams) -> tuple[Binomial, ...]:
    """Minors of the open chain, the first n - 1 columns; empty when n == 2.

    Every minor is homogeneous for both gradings, and there are
    C(n-1, 2) of them.
    """
    return tuple(Binomial(u, v) for _, u, v, _, _ in chain_minors(params, False))


def minors_closed_chain(params: InstanceParams) -> tuple[Binomial, ...]:
    """Minors of the 2 x n matrix: the open chain's, then each column with column n.

    C(n, 2) minors, homogeneous for the weight grading.
    """
    return tuple(Binomial(u, v) for _, u, v, _, _ in chain_minors(params, True))


def minor_words(params: InstanceParams, closed: bool) -> tuple[tuple[tuple, int, int], ...]:
    """The closed- or open-chain minors as (degree, plus word, minus word), for fibers.word_splits.

    The same minors, in the same order, as minors_closed_chain or
    minors_open_chain, each two additions of packed column words, with no
    side packed again.  The degree, under the weights for the closed chain
    and under the repunit and ones rows for the open one, is the one each
    minor's homogeneity check computed; the closed chain checks its open
    minors under the weights and the ones row, and keeps the first entry.
    """
    k = 1 if closed else 2
    return tuple((d[:k], p, q) for d, _, _, p, q in chain_minors(params, closed))


def structured_family(params: InstanceParams, i: int, part: int) -> tuple[Binomial, ...]:
    """One block of the structured generating family for the x_i-cheap order.

    A part is a set of chain minors, by their columns j < k of
    chain_matrix: part 1 pairs the columns i..n-1, part 2 the columns
    1..i-1, part 3 one of each, part 4 each column with column n.  Sizes:
    C(n-i, 2), C(i-1, 2), (i-1)(n-i) and n-1, in the chain's order, each
    minor led by its leading term under that order.
    """
    if part not in (1, 2, 3, 4):
        raise ValueError(f"part must be 1..4, got {part}")
    rows = _oriented(params, chain_minors(params, part == 4), i)
    return tuple(Binomial(u, v) for t, _, _, u, v in rows if t == part)


def _oriented(params: InstanceParams, fam: list[tuple], i: int) -> list[tuple]:
    """fam, a chain_minors list, as (part, lead word, tail word, lead, tail) under build_order_i.

    By part, each as fam lists it.  The minor on columns j < k leads with
    top_j * bot_k exactly when (j - i) mod n > (k - i) mod n: its sides
    differ by e_j - e_k, e_t = top_t - bot_t, so its lead follows a ranking
    of the columns (Sturmfels & Zelevinsky, Adv. Math. 98, 1993), for this
    order the cyclic one from column i.
    """
    n = params.n
    if not 1 <= i <= n:
        raise ValueError(f"i must be in 1..{n}, got {i}")
    out = []
    for (j, k), (_, u, v, p, q) in zip(_chain_pairs(n, True), fam):  # fam lists no pair past it
        part = 4 if k == n else 1 if i <= j else 2 if k < i else 3
        out.append((part, p, q, u, v) if (j - i) % n > (k - i) % n else (part, q, p, v, u))
    return sorted(out, key=itemgetter(0))


def structured_open_family(params: InstanceParams, i: int) -> tuple[Binomial, ...]:
    """Parts 1+2+3: the open-chain minors oriented for the x_i-cheap order."""
    return structured_basis(params, i, False).elements


def structured_closed_family(params: InstanceParams, i: int) -> tuple[Binomial, ...]:
    """Parts 1+2+3+4: all closed-chain minors oriented for the x_i-cheap order."""
    return structured_basis(params, i, True).elements


def structured_basis(params: InstanceParams, i: int, closed: bool) -> GroebnerBasis:
    """The closed or open structured family as rules under build_order_i(weights, i).

    The words _minor formed, with no side packed and no Binomial built: the
    input of groebner's basis checks.
    """
    return oriented_basis(params, chain_minors(params, closed), i)


def oriented_basis(params: InstanceParams, fam: list[tuple], i: int) -> GroebnerBasis:
    """structured_basis from fam, a chain_minors list, which verify builds once per run.

    The sides the minors were checked on become the basis's sides.
    """
    rows = _oriented(params, fam, i)
    basis = GroebnerBasis(tuple((p, q) for _, p, q, _, _ in rows),
                          build_order_i(generators(params), i))
    object.__setattr__(basis, "sides", tuple((u, v) for _, _, _, u, v in rows))
    return basis


def projective_relation_matrix(params: InstanceParams) -> tuple[tuple[int, ...], ...]:
    """(n-2) x n sliding-window relations for the two-row grading; n >= 4.

    The rows are the exponent vectors of the minors on columns (t, t+2),
    t = 1..n-3, which slide (b, -1, -b, 1), then on (n-2, n-1), which is
    (b, -(b+1), 1).  They annihilate the grading columns, and the last n-2
    columns form a determinant-one block, so the rows are a basis of the
    full kernel lattice.  cor-gb1's relation-matrix sub-check compares
    their span with the kernel's; the tests check the block on its own.
    """
    n = params.n
    if n < 4:
        raise ValueError(f"the sliding-window pattern needs n >= 4, got {n}")
    tops, bots = _column_vectors(params)
    pairs = [(t, t + 2) for t in range(1, n - 2)] + [(n - 2, n - 1)]
    return tuple(tuple(map(sub, *_minor(tops, bots, j, k))) for j, k in pairs)


def weight_relation_matrix(params: InstanceParams) -> tuple[tuple[int, ...], ...]:
    """(n-1) x n relations for the weight grading; n >= 3.

    The rows are the exponent vectors of the adjacent minors on columns
    (t, t+1), t = 1..n-1: rows 1..n-2 slide (b, -(b+1), 1), and the last
    row has a+1 in column 1 and (b, -(b+1)) in the last two columns.
    Maximal minors reproduce the semigroup generators up to sign, so the
    row span sits inside the weight kernel with index gcd(a_1, ..., a_n);
    it is the full kernel lattice exactly when the generators are coprime.
    cor-gb2, which takes coprime instances only, compares the span with
    the kernel's in its relation-matrix sub-check; the tests check the
    minors for every gcd.
    """
    n = params.n
    if n < 3:
        raise ValueError(f"the relation pattern needs n >= 3, got {n}")
    tops, bots = _column_vectors(params)
    return tuple(tuple(map(sub, *_minor(tops, bots, t, t + 1))) for t in range(1, n))


def toric_basis(
    grading: Grading,
    order: MatrixOrder | None = None,
    trace: TraceFn | None = None,
) -> GroebnerBasis:
    """Minimal Groebner basis of the toric ideal of the grading's monomial map, unreduced.

    Route (Conti-Traverso; Sturmfels, Groebner Bases and Convex Polytopes,
    ch. 4): the toric ideal is the t-free part of the ideal of the
    x_i - t^(A_i).  With d >= 2 rows there is one variable t_k per row, and
    a row with a negative entry is first shifted by a multiple of the
    positive row, which keeps the integer kernel and so the toric ideal.

    A one-row grading w is split into two t's, and one of them is a
    variable already.  With m = min(w), c = gcd(w_i - m) (1 when all
    weights are equal) and v = (w - m) / c, x_i -> t^(w_i) factors through
    x_i -> t_1^(v_i) * t_2 and t_1 -> t^c, t_2 -> t^m.  The kernel of
    k[t_1, t_2] -> k[t] is generated by t_1^(m/g) - t_2^(c/g),
    g = gcd(c, m), and its image is the domain k[t^c, t^m], so the toric
    ideal is the t-free part of the ideal of those binomials and that
    relation (Cox, Little & O'Shea, Ideals, Varieties, and Algorithms: the
    kernel of a map into a quotient ring, by elimination).  With k the
    first variable of least weight, v_k = 0 and x_k - t_2 is one of the
    binomials, so t_2 = x_k is substituted: the run has the n + 1
    variables x_1..x_n, t_1, the inputs x_i - t_1^(v_i) * x_k for i != k
    and the relation t_1^(m/g) - x_k^(c/g), and eliminates t_1 alone.
    For the paper's weights v is the repunit row, (c, m) is (a, r_b(n))
    and k = 1; the run keeps far fewer rules than one t of weight w_i.

    Order row one, the weights of the images of the x_i followed by the
    weights of the t's (c; all ones with d rows), makes every input
    homogeneous; row two, the t-degree, puts every monomial involving t
    above every t-free monomial of the same weight, so one Buchberger run
    eliminates t.  The requested order's rows follow, then -1 unit rows on
    t_1..t_(d-1).  Every element is homogeneous for row one, and on t-free
    monomials of equal row-one weight this is the requested order, so the
    t-free part is already a Groebner basis under it.  A row that depends
    on the rows above it never breaks a tie, so the stack is used as it
    is.  The t's are the last d variables, so a rule whose lead has no t
    field set is already a packed n-variable rule (see binomials).  No
    lead of the run divides another, so the t-free rules are a minimal
    basis; their tails are left as the run made them.  Minimal generator
    count and uniqueness are invariants of the ideal, so the fiber oracle
    reads these rules as they are.

    The run's ideal is prime: it is the kernel of a map into a domain,
    x_i -> t^(A_i) into k[t] with d rows, and into k[t^c, t^m] on the
    one-row route, where t_1 -> t^c and x_k -> t^m.  It contains no
    monomial, as every monomial maps to a nonzero one, so it equals its
    saturation by every variable, and buchberger runs with saturated=True;
    its docstring gives the argument that the reduced basis is unchanged.
    """
    n = grading.nvars
    pos = grading.positive_row()
    if order is None:
        order = build_order_i(pos, n)
    elif order.nvars != n:
        raise ValueError(f"order has {order.nvars} variables, grading has {n}")
    if len(grading.rows) == 1:
        m = min(pos)
        k = pos.index(m) + 1
        c = gcd(*(w - m for w in pos)) or 1
        g = gcd(c, m)
        d, x_weights, coeffs = 1, pos, (c,)
        gens = [Binomial(_mono(n + 1, (i, 1)), _mono(n + 1, (n + 1, (w - m) // c), (k, 1)))
                for i, w in enumerate(pos, 1) if i != k]
        gens.append(Binomial(_mono(n + 1, (n + 1, m // g)), _mono(n + 1, (k, c // g))))
    else:
        t_rows = []
        for row in grading.rows:
            c = max(0, *(-(x // p) for x, p in zip(row, pos)))
            t_rows.append([x + c * p for x, p in zip(row, pos)])
        d = len(t_rows)
        x_weights, coeffs = tuple(map(sum, zip(*t_rows))), (1,) * d
        gens = [Binomial(_mono(n + d, (i, 1)), (0,) * n + tuple(r[i - 1] for r in t_rows))
                for i in range(1, n + 1)]
    rows = (
        x_weights + coeffs,
        (0,) * n + (1,) * d,
        *(r + (0,) * d for r in order.rows),
        *(_unit_negative_row(n + d, c) for c in range(n, n + d - 1)))
    if trace:
        header = (f"x{n + 1} = t_1, t_2 = x{k}; "
                  f"input {n - 1} is the relation {format_binomial(gens[-1])}" if d == 1
                  else ", ".join(f"x{n + t} = t_{t}" for t in range(1, d + 1)))
        trace(f"elimination run over x1..x{n + d}, where {header}")
    elim = buchberger(gens, MatrixOrder(rows), trace, saturated=True)
    # a t-free leading term has a t-free trailing term under this order, and
    # a rule whose t fields are zero is already an n-variable rule
    return GroebnerBasis(tuple(r for r in elim.rules if not r[0] >> (FIELD_BITS * n)), order)


def toric_ideal(
    grading: Grading,
    order: MatrixOrder | None = None,
    trace: TraceFn | None = None,
) -> GroebnerBasis:
    """Reduced basis of the toric ideal of the grading's monomial map: toric_basis, reduced."""
    return reduce_gb(toric_basis(grading, order, trace))
