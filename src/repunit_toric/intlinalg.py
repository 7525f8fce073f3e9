"""Exact integer linear algebra on plain Python ints.

Small dense matrices only (the widest, toric_ideal's elimination, has
n + 2 <= 12 columns up to n = 10 for a two-row grading, and n + 1 for a
one-row grading, whose second t is a variable), so clarity wins over
asymptotics: the kernel, determinant, rank and lattice comparison all read
one xgcd row elimination, which ends in the canonical row-style Hermite
form.  rank first peels every row with a single nonzero entry, together
with that entry's column: such a row is the only pivot its column needs.
Every order matrix the program builds is mostly such unit rows, so its
rank check eliminates on one column, not n.
"""

from __future__ import annotations

from typing import Sequence

IntMatrix = Sequence[Sequence[int]]


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and a*x + b*y == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def rank(rows: IntMatrix) -> int:
    """Rank of rows, single-entry rows peeled off first.

    A row whose only nonzero entry lies in column c spans e_c, so it is
    the one pivot column c needs.  Each such column counts once, and the
    other rows, cut to the columns left, go through _echelon.
    """
    if any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("ragged matrix")
    units: set[int] = set()
    rest = []
    for r in rows:
        support = [c for c, x in enumerate(r) if x]
        if len(support) == 1:
            units.add(support[0])
        else:
            rest.append(r)
    rest = [[x for c, x in enumerate(r) if c not in units] for r in rest]
    return len(units) + _echelon(rest)[1]


def det(rows: IntMatrix) -> int:
    a, r, sign = _echelon(rows)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if r < n:
        return 0
    d = sign
    for i in range(n):
        d *= a[i][i]
    return d


def kernel_basis(rows: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Basis of the integer kernel {u : rows @ u == 0}, in row Hermite form.

    _echelon row-reduces [rows^T | I] by unimodular steps, so the right part
    of each row is the combination giving its left part.  The rows whose
    left part vanished span the kernel (Z^n mod it is torsion free), and
    they end the echelon form with pivots in I, so they are its row_hnf.
    """
    if not rows:
        raise ValueError("kernel_basis needs at least one row")
    m, n = len(rows), len(rows[0])
    if any(len(r) != n for r in rows):
        raise ValueError("ragged matrix")
    aug = [[r[j] for r in rows] + [int(i == j) for i in range(n)] for j in range(n)]
    return tuple(tuple(row[m:]) for row in _echelon(aug)[0] if not any(row[:m]))


def _echelon(rows: IntMatrix) -> tuple[list[list[int]], int, int]:
    """Row Hermite form with its zero rows last, the rank, and the determinant sign.

    Each xgcd step replaces two rows by a determinant-1 combination of them,
    [[x, y], [-a_ic/g, a_rc/g]] with x*a_rc + y*a_ic = g, which leaves
    exactly zero in the lower row's pivot column, so one step a row does;
    a row swap or a row negation flips the sign, and reducing the rows above
    a pivot keeps it.  Pivots are positive and entries above each pivot lie
    in [0, pivot).
    """
    a = [list(r) for r in rows]
    if not a:
        return a, 0, 1
    n = len(a[0])
    if any(len(r) != n for r in a):
        raise ValueError("ragged matrix")
    m = len(a)
    r = 0
    sign = 1
    for c in range(n):
        piv = None
        for i in range(r, m):
            if a[i][c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        for i in range(r + 1, m):
            if a[i][c]:
                g, x, y = xgcd(a[r][c], a[i][c])
                pr = [x * p + y * q for p, q in zip(a[r], a[i])]
                qr = [(-(a[i][c] // g)) * p + (a[r][c] // g) * q for p, q in zip(a[r], a[i])]
                a[r], a[i] = pr, qr
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            sign = -sign
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                a[i] = [p - q * s for p, s in zip(a[i], a[r])]
        r += 1
        if r == m:
            break
    return a, r, sign


def row_hnf(rows: IntMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonical row Hermite form of the lattice spanned by the rows.

    Pivots are positive, entries above each pivot are reduced into
    [0, pivot), zero rows are dropped; two row sets span the same lattice
    exactly when their forms are equal.
    """
    a, r, _ = _echelon(rows)
    return tuple(tuple(row) for row in a[:r])


def maximal_minors(rows: IntMatrix) -> tuple[int, ...]:
    """Determinants obtained by deleting one column of an m x (m+1) matrix.

    Entry c is the minor that deletes column c (0-based).
    """
    m = len(rows)
    if m == 0 or len(rows[0]) != m + 1:
        raise ValueError("maximal_minors expects an m x (m+1) matrix")
    out = []
    for c in range(m + 1):
        sub = [[row[j] for j in range(m + 1) if j != c] for row in rows]
        out.append(det(sub))
    return tuple(out)


def dot(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(a * b for a, b in zip(u, v))
