"""Claim verifiers: each named claim checks one statement mechanically.

Verifiers return structured reports rather than booleans so callers can see
which sub-check failed and how long it took; `cli` renders them and maps
them to exit codes.  A claim's hypotheses are the
`requires` entries of its `ClaimSpec`; instances outside them are refused
before any check runs, never silently recomputed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cache
from math import comb, gcd
from operator import add
from typing import Callable

from .binomials import Binomial
from .families import (
    chain_matrix,
    chain_minors,
    minors_closed_chain,
    minors_open_chain,
    oriented_basis,
    projective_grading,
    projective_relation_matrix,
    scalar_grading,
    toric_ideal,
    weight_relation_matrix,
)
from .fibers import (
    betti_splits,
    forced_generators,
    minimal_generator_count,
    prune_redundant_generators,
    unique_minimal_system,
)
from .groebner import (
    groebner_reduced,
    is_groebner_basis,
    is_minimal_basis,
    is_reduced_basis,
    saturate_torus,
)
from .intlinalg import kernel_basis, row_hnf
from .orders import build_order_i, five_variable_order, minor_side_predicate
from .semigroup import (
    InstanceParams,
    gcd_of_generators,
    generators,
    homogeneity_identity_holds,
    repunit,
)

PASS = "pass"
FAIL = "fail"
REFUSED = "refused"
STATUSES = (PASS, FAIL, REFUSED)  # rising precedence: a report takes its claims' highest


@dataclass(frozen=True)
class ClaimResult:
    """One sub-check of a claim run, or the refusal that stood in for them."""

    status: str
    detail: str
    ms: int = 0

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


@dataclass(frozen=True)
class VerificationReport:
    """One run of the claim `name` on `params`, at order index `i` if it takes one."""

    name: str
    params: InstanceParams
    i: int | None
    claims: tuple[ClaimResult, ...]

    def overall(self) -> str:
        return max((c.status for c in self.claims), key=STATUSES.index, default=PASS)


CheckFn = Callable[[], tuple[bool, str]]


class _Checks(list):
    """Collects the timed sub-checks of one claim run, in the order they ran."""

    def __call__(self, label: str, fn: CheckFn) -> bool:
        t0 = time.perf_counter()
        ok, detail = fn()
        ms = int(round((time.perf_counter() - t0) * 1000))
        self.append(ClaimResult(PASS if ok else FAIL, f"{label}: {detail}", ms))
        return ok


# One hypothesis of a claim: (holds(params), refusal text for params outside it).
Requirement = tuple[Callable[[InstanceParams], bool], Callable[[InstanceParams], str]]

BASE_AT_LEAST_2: Requirement = (
    lambda p: p.b >= 2, lambda p: f"claim assumes base b >= 2, got b={p.b}"
)
COPRIME: Requirement = (
    lambda p: gcd_of_generators(p) == 1,
    lambda p: f"claim assumes coprime generators, got gcd {gcd_of_generators(p)}",
)


def pinned(**values: int) -> Requirement:
    """The claim is stated for these parameter values only."""
    want = ", ".join(f"{k}={v}" for k, v in values.items())
    return (
        lambda p: all(getattr(p, k) == v for k, v in values.items()),
        lambda p: f"claim is pinned to {want}, got "
        + ", ".join(f"{k}={getattr(p, k)}" for k in values),
    )


def _is_oriented(basis) -> bool:
    """The orientation gate: every rule nonzero and led by its plus side.

    It reads the basis's unoriented rule, which is_groebner_basis then
    reads again without comparing.
    """
    return all(p != q for p, q in basis.rules) and basis.unoriented is None


def _oriented_groebner(check: _Checks, basis) -> bool:
    """Orientation gate, then the S-pair check; False when the gate fails."""
    oriented = check(
        "orientation",
        lambda: (_is_oriented(basis), "plus side of every element is its leading term"),
    )
    if oriented:
        check("groebner",
              lambda: (is_groebner_basis(basis), "all S-pairs reduce to zero"))
    return oriented


def _lattice_route(check: _Checks, label: str, detail: str, rel, grading, minors_gb) -> None:
    """The relation rows span the kernel lattice; their ideal saturates to the minors."""
    check(
        "relation-matrix",
        lambda: (
            kernel_basis(grading.rows) == row_hnf(rel),
            f"{len(rel)} rows span the full kernel lattice",
        ),
    )

    def saturation_route() -> tuple[bool, str]:
        ref = minors_gb()
        sat = saturate_torus([Binomial.from_vector(r) for r in rel], grading)
        return groebner_reduced(sat, ref.order).rules == ref.rules, detail

    check(label, saturation_route)


def _oracle_count(check: _Checks, label: str, splits, expected: int) -> None:
    check(
        label,
        lambda: (
            sum(s.new_generators() for s in splits().values()) == expected,
            f"fiber oracle counts {expected} minimal generators",
        ),
    )


def verify_homogeneity_identity(check: _Checks, params: InstanceParams) -> None:
    """lemma2: b*a_j + a_(j+k) == b*a_(j+k-1) + a_(j+1) on extended generators."""

    def identity() -> tuple[bool, str]:
        bad = [
            (j, k)
            for j in range(1, 31)
            for k in range(1, 31)
            if not homogeneity_identity_holds(params, j, k)
        ]
        if bad:
            return False, f"fails at (j, k) = {bad[:3]}"
        return True, "holds for all j, k in 1..30"

    check("weight identity", identity)


def verify_minor_side_classifier(check: _Checks, params: InstanceParams) -> None:
    """lemma3: the index predicate picks the smaller minor side for every i.

    Each side is a sum of chain_matrix columns, exact for every a and b.
    """
    n, (tops, bots) = params.n, zip(*chain_matrix(params))
    weights = generators(params)

    def classifier() -> tuple[bool, str]:
        count = 0
        bad = []
        for i in range(1, n + 1):
            order = build_order_i(weights, i)
            for j in range(1, n - 1):
                for k in range(j + 1, n):
                    u = tuple(map(add, tops[j - 1], bots[k - 1]))  # x_j^b * x_(k+1)
                    v = tuple(map(add, bots[j - 1], tops[k - 1]))
                    count += 1
                    if minor_side_predicate(n, i, j, k) != (order.compare(u, v) < 0):
                        bad.append((i, j, k))
        if bad:
            return False, f"disagrees at (i, j, k) = {bad[:3]}"
        return True, f"agrees with compare on all {count} admissible (i, j, k)"

    check("side classifier", classifier)


def verify_reduced_open_family(check: _Checks, params: InstanceParams, i: int) -> None:
    """prop-gb1: the structured open-chain family is the reduced basis."""
    fam = chain_minors(params, False)
    basis = oriented_basis(params, fam, i)
    minors = [(u, v) for _, u, v, _, _ in fam]

    if not _oriented_groebner(check, basis):
        return
    check("reduced",
          lambda: (is_reduced_basis(basis), "no leading term divides another monomial"))
    check("engine-equality",
          lambda: (set(groebner_reduced(minors, basis.order).rules) == set(basis.rules),
                   "engine reduced basis of the minors equals the family"))


def verify_minimal_closed_family(check: _Checks, params: InstanceParams, i: int) -> None:
    """thm-gb2: the structured closed-chain family is a minimal basis of the minors."""
    fam = chain_minors(params, True)
    basis = oriented_basis(params, fam, i)
    minors = {(u, v) for _, u, v, _, _ in fam}

    if not _oriented_groebner(check, basis):
        return
    check("minimal",
          lambda: (is_minimal_basis(basis), "no leading term divides another leading term"))
    check(
        "coverage",
        lambda: (
            {(u, v) if u >= v else (v, u) for u, v in basis.sides} == minors,
            "family equals the minor set up to orientation",
        ),
    )


def verify_projective_saturation(check: _Checks, params: InstanceParams) -> None:
    """cor-gb1: relation rows saturate to the open-chain minors; unique system."""
    grading = projective_grading(params)
    minors = minors_open_chain(params)
    order = build_order_i(generators(params), 1)

    _lattice_route(check, "saturation",
                   "torus saturation of the relation ideal equals the minor ideal",
                   projective_relation_matrix(params), grading,
                   cache(lambda: groebner_reduced(minors, order)))
    expected = comb(params.n - 1, 2)
    splits = cache(lambda: betti_splits(minors, grading))
    _oracle_count(check, "minimal-generation", splits, expected)
    check(
        "uniqueness",
        lambda: (
            unique_minimal_system(splits()),
            "every contributing fiber is two isolated monomials",
        ),
    )
    check(
        "pruning-agreement",
        lambda: (
            len(prune_redundant_generators(minors, order)) == expected,
            "greedy Groebner pruning keeps the same count",
        ),
    )


def verify_weight_toric(check: _Checks, params: InstanceParams) -> None:
    """cor-gb2: toric ideal equals the closed-chain minors; uniqueness frontier."""
    grading = scalar_grading(params)
    fam = chain_minors(params, True)
    minors = tuple(Binomial(u, v) for _, u, v, _, _ in fam)
    order = build_order_i(generators(params), 1)

    minors_gb = cache(lambda: groebner_reduced(minors, order))  # both routes compare to it
    if params.n >= 3:
        _lattice_route(check, "lattice-route", "saturated relation ideal equals the minor ideal",
                       weight_relation_matrix(params), grading, minors_gb)
    check("toric-equals-minors",
          lambda: (toric_ideal(grading, order).rules == minors_gb().rules,
                   "toric ideal equals the minor ideal"))
    splits = cache(lambda: betti_splits(minors, grading))
    _oracle_count(check, "minimal-generation", splits, comb(params.n, 2))
    if params.n > 3:
        def frontier() -> tuple[bool, str]:
            unique = unique_minimal_system(splits())
            predicate = params.a < params.b - 1
            reduced_all = all(is_reduced_basis(oriented_basis(params, fam, i))
                              for i in range(1, params.n + 1))
            ok = unique == predicate == reduced_all
            return ok, (
                f"oracle={unique}, a<b-1={predicate}, all-i reduced={reduced_all}"
            )

        check("uniqueness-equivalence", frontier)


def verify_five_variable_growth(check: _Checks, params: InstanceParams) -> None:
    """example5: the 3-5-4-2 tie-break order needs 8 reduced elements, not 6."""
    order = five_variable_order(generators(params))
    fam = chain_minors(params, False)

    def reduced_size() -> tuple[bool, str]:
        gb = groebner_reduced([(u, v) for _, u, v, _, _ in fam], order)
        return len(gb.elements) == 8, f"reduced basis has {len(gb.elements)} elements"

    check("reduced-size", reduced_size)

    def reduced_at(i: int) -> bool:
        # the structured open family, 6 minors, is the reduced basis under the
        # x_i-cheap order, checked as prop-gb1 checks it
        basis = oriented_basis(params, fam, i)
        return _is_oriented(basis) and is_groebner_basis(basis) and is_reduced_basis(basis)

    def exceeds() -> tuple[bool, str]:
        bad = [i for i in range(1, 6) if not reduced_at(i)]
        if bad:
            return False, f"the structured family is not the reduced basis at i = {bad}"
        return True, "every cheap-variable order needs only 6"

    check("exceeds-structured", exceeds)


def four_variable_generators(params: InstanceParams) -> tuple[Binomial, ...]:
    """The six printed generators of the n=4 toric ideal, orientation free."""
    if params.n != 4:
        raise ValueError(f"printed set is for n=4, got n={params.n}")
    a, b = params.a, params.b
    raw = (
        Binomial((0, b + 1, 0, 0), (b, 0, 1, 0)),
        Binomial((b, 0, 0, 1), (0, 1, b, 0)),
        Binomial((0, 0, b + 1, 0), (0, b, 0, 1)),
        Binomial((a + b + 1, 0, 0, 0), (0, 1, 0, b)),
        Binomial((a + 1, b, 0, 0), (0, 0, 1, b)),
        Binomial((0, 0, 0, b + 1), (a + 1, 0, b, 0)),
    )
    return tuple(g.canonical() for g in raw)


def verify_four_variable_generators(check: _Checks, params: InstanceParams) -> None:
    """example-n4-minors: at n=4 the six printed binomials minimally generate."""
    grading = scalar_grading(params)
    minors = minors_closed_chain(params)
    printed = four_variable_generators(params)
    order = build_order_i(generators(params), 1)

    check(
        "printed-set",
        lambda: (
            set(printed) == set(minors),
            "printed binomials are exactly the closed-chain minors",
        ),
    )
    check("toric-equality",
          lambda: (toric_ideal(grading, order).rules == groebner_reduced(minors, order).rules,
                   "printed set generates the toric ideal"))
    splits = cache(lambda: betti_splits(minors, grading))
    _oracle_count(check, "oracle-count", splits, 6)
    check(
        "pruning",
        lambda: (
            {h.canonical() for h in prune_redundant_generators(minors, order)}
            == set(printed),
            "greedy pruning keeps all six",
        ),
    )
    if params.a < params.b - 1:
        check(
            "forced-system",
            lambda: (
                forced_generators(splits()) == tuple(sorted(
                    printed, key=lambda h: (h.plus, h.minus))),
                "fiber oracle forces exactly the printed six",
            ),
        )


def verify_noncoprime_counts(check: _Checks, params: InstanceParams) -> None:
    """example-gcd3: gcd 3 instance where the toric ideal needs 4, minors need 6."""
    grading = scalar_grading(params)
    minors = minors_closed_chain(params)
    order = build_order_i(generators(params), 1)

    check(
        "generators",
        lambda: (
            generators(params) == (15, 18, 24, 36) and gcd_of_generators(params) == 3,
            f"generators {generators(params)} with gcd {gcd_of_generators(params)}",
        ),
    )
    tor = cache(lambda: toric_ideal(grading, order))
    check(
        "toric-minimal-count",
        lambda: (
            minimal_generator_count(tor().elements, grading) == 4,
            "toric ideal needs 4 minimal generators",
        ),
    )
    check(
        "minor-minimal-count",
        lambda: (
            minimal_generator_count(minors, grading) == 6,
            "minor ideal needs 6 minimal generators",
        ),
    )
    check(
        "ideals-differ",
        lambda: (
            tor().rules != groebner_reduced(minors, order).rules,
            "toric ideal is not the minor ideal",
        ),
    )


def verify_nonminor_lead(check: _Checks, params: InstanceParams) -> None:
    """example-a3b3: a reduced-basis element that is not a minor at a=3, b=3, n=4."""
    order = build_order_i(generators(params), 2)
    fam = chain_minors(params, True)
    minors = [(u, v) for _, u, v, _, _ in fam]
    target = Binomial((0, 0, 0, 4), (1, 4, 2, 0))

    def in_reduced() -> tuple[bool, str]:
        gb = groebner_reduced(minors, order)
        return target in gb.elements, "x4^4 - x1*x2^4*x3^2 appears in the reduced basis"

    check("reduced-member", in_reduced)
    check(
        "not-a-minor",
        lambda: (
            tuple(target.canonical()) not in minors,
            "the new element is not a 2x2 minor",
        ),
    )

    def minimal_not_reduced() -> tuple[bool, str]:
        basis = oriented_basis(params, fam, 2)
        return (
            is_minimal_basis(basis) and not is_reduced_basis(basis),
            "structured family is minimal but not reduced here",
        )

    check("minimal-not-reduced", minimal_not_reduced)


@dataclass(frozen=True)
class ClaimSpec:
    """A named claim: its runner, its hypotheses and its pinned-instance defaults.

    `runner(check, params)` (or `runner(check, params, i)` when `per_index`)
    records its sub-checks through `check`; it runs only on instances for
    which every `requires` entry holds.
    """

    runner: Callable
    per_index: bool = False
    defaults: tuple[tuple[str, int], ...] = ()
    requires: tuple[Requirement, ...] = ()


CLAIMS: dict[str, ClaimSpec] = {
    "lemma2": ClaimSpec(verify_homogeneity_identity),
    "lemma3": ClaimSpec(verify_minor_side_classifier),
    "prop-gb1": ClaimSpec(
        verify_reduced_open_family, per_index=True, requires=(BASE_AT_LEAST_2,)
    ),
    "thm-gb2": ClaimSpec(
        verify_minimal_closed_family, per_index=True, requires=(BASE_AT_LEAST_2,)
    ),
    "cor-gb1": ClaimSpec(
        verify_projective_saturation,
        requires=(
            BASE_AT_LEAST_2,
            (lambda p: p.n >= 4, lambda p: f"relation pattern needs n >= 4, got n={p.n}"),
        ),
    ),
    "cor-gb2": ClaimSpec(verify_weight_toric, requires=(BASE_AT_LEAST_2, COPRIME)),
    "example5": ClaimSpec(
        verify_five_variable_growth,
        defaults=(("b", 5), ("n", 5)),
        requires=(
            pinned(n=5, b=5),
            (lambda p: gcd(p.a, repunit(5, 5)) == 1,
             lambda p: f"claim assumes gcd(a, {repunit(5, 5)}) == 1, got a={p.a}"),
        ),
    ),
    "example-n4-minors": ClaimSpec(
        verify_four_variable_generators,
        defaults=(("a", 1), ("b", 3), ("n", 4)),
        requires=(BASE_AT_LEAST_2, pinned(n=4), COPRIME),
    ),
    "example-gcd3": ClaimSpec(
        verify_noncoprime_counts,
        defaults=(("a", 3), ("b", 2), ("n", 4)),
        requires=(pinned(a=3, b=2, n=4),),
    ),
    "example-a3b3": ClaimSpec(
        verify_nonminor_lead,
        defaults=(("a", 3), ("b", 3), ("n", 4)),
        requires=(pinned(a=3, b=3, n=4),),
    ),
}


def claim_spec(name: str) -> ClaimSpec:
    """The registered claim called name; ValueError lists the choices."""
    try:
        return CLAIMS[name]
    except KeyError:
        raise ValueError(f"unknown claim {name!r}; choose from {sorted(CLAIMS)}") from None


def run_claim(
    name: str,
    params: InstanceParams,
    i: int | None = None,
) -> list[VerificationReport]:
    """Run one named claim; a per-index claim fans out over every i unless given one.

    An instance outside the claim's hypotheses gets one refused report per
    index, and no check runs.
    """
    spec = claim_spec(name)
    if not spec.per_index:
        if i is not None:
            raise ValueError(f"claim {name!r} does not take an order index")
        indices: list[int | None] = [None]
    elif i is not None:
        if not 1 <= i <= params.n:
            raise ValueError(f"order index must be in 1..{params.n}, got {i}")
        indices = [i]
    else:
        indices = list(range(1, params.n + 1))
    why = next((why for holds, why in spec.requires if not holds(params)), None)
    if why is not None:
        refused = (ClaimResult(REFUSED, why(params)),)
        return [VerificationReport(name, params, idx, refused) for idx in indices]
    reports = []
    for idx in indices:
        check = _Checks()
        if idx is None:
            spec.runner(check, params)
        else:
            spec.runner(check, params, idx)
        reports.append(VerificationReport(name, params, idx, tuple(check)))
    return reports
