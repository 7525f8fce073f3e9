"""Command line front end.

Subcommands: info, verify, sweep, groebner, betti, unique.  Each handler
returns data, (exit code, JSON payload, text view); main alone renders the
chosen format, writes stdout or --out and returns the code.  Exit codes:
0 all checks passed, 1 a verification failed, 2 usage error (exponent
overflow and an unwritable --out or stdout, such as a closed pipe,
included) or a claim refused the instance, 3 internal error.  The argument
parser is built once per process, on the first main call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from contextlib import nullcontext
from typing import Sequence

from .binomials import ExponentOverflowError, format_binomial
from .families import (
    minors_closed_chain,
    minors_open_chain,
    projective_grading,
    scalar_grading,
    toric_ideal,
)
from .fibers import (
    betti_degrees,
    betti_splits,
    has_unique_minimal_system,
    unique_minimal_system,
)
from .groebner import groebner_reduced, is_minimal_basis, is_reduced_basis
from .orders import build_order_i, five_variable_order
from .semigroup import InstanceParams, gcd_of_generators, generators, repunit
from .verify import CLAIMS, FAIL, PASS, REFUSED, VerificationReport, claim_spec, run_claim

# a verify run's exit code: a refusal outweighs a failure, which outweighs a pass
VERDICT_CODES = {PASS: 0, FAIL: 1, REFUSED: 2}

# --source name -> (minor family, or None for the toric ideal; its grading)
SOURCES = {
    "minors-x": (minors_closed_chain, scalar_grading),
    "minors-y": (minors_open_chain, projective_grading),
    "toric-i": (None, scalar_grading),
    "toric-j": (None, projective_grading),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repunit-toric",
        description="Exact verification toolkit for repunit-curve binomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, ranges: bool = False) -> None:
        kind = str if ranges else int
        p.add_argument("--a", type=kind, help="instance parameter a >= 1")
        p.add_argument("--b", type=kind, help="instance parameter b >= 1")
        p.add_argument("--n", type=kind, help="number of generators, n >= 2")
        p.add_argument(
            "--format", choices=("text", "json", "json-like"), default="text",
            help="output format (json and json-like are synonyms)",
        )
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    def add_engine(p: argparse.ArgumentParser) -> None:
        add_common(p)
        p.add_argument("--source", choices=SOURCES, required=True)
        p.add_argument(
            "--trace", action="store_true",
            help="stream the Groebner engine's steps to stderr: inputs, S-pairs, "
                 "skipped pairs and the elimination header",
        )

    p_info = sub.add_parser("info", help="print instance basics")
    add_common(p_info)

    p_verify = sub.add_parser("verify", help="verify a named claim")
    add_common(p_verify)
    p_verify.add_argument("claim_pos", nargs="?", metavar="CLAIM",
                          help=f"one of {', '.join(sorted(CLAIMS))}")
    p_verify.add_argument("--claim", dest="claim_opt", help="claim name (same as positional)")
    idx = p_verify.add_mutually_exclusive_group()
    idx.add_argument("--i", type=int, help="order index for per-index claims")
    idx.add_argument("--all-i", action="store_true", help="run per-index claims for every i")

    p_sweep = sub.add_parser("sweep", help="tabulate a parameter grid")
    add_common(p_sweep, ranges=True)

    p_gb = sub.add_parser("groebner", help="list a reduced basis")
    add_engine(p_gb)
    p_gb.add_argument("--order", default="prec-i",
                      help="prec-i (with --i), prec-<k>, or example5")
    p_gb.add_argument("--i", type=int, help="cheap variable index for prec-i")

    p_betti = sub.add_parser("betti", help="fiber-oracle generator counts per degree")
    add_engine(p_betti)

    p_unique = sub.add_parser("unique", help="is the minimal binomial system unique")
    add_engine(p_unique)

    return parser


def _params_from_args(args, defaults: dict | None = None) -> InstanceParams:
    values = {}
    for field in ("a", "b", "n"):
        v = getattr(args, field)
        if v is None and defaults:
            v = defaults.get(field)
        if v is None:
            raise ValueError(f"missing --{field}")
        values[field] = int(v)
    return InstanceParams(**values)


def _trace_fn(args):
    if not args.trace:
        return None
    return lambda line: print(f"trace: {line}", file=sys.stderr)


Result = tuple[int, object, str]


def cmd_info(args) -> Result:
    params = _params_from_args(args)
    gens = generators(params)
    g = gcd_of_generators(params)
    if g != 1:
        predicted = "n/a (generators not coprime)"
    elif params.n <= 3:
        predicted = "n/a (n <= 3)"
    else:
        predicted = "yes" if params.a < params.b - 1 else "no"
    lines = [
        f"instance: a={params.a} b={params.b} n={params.n}",
        f"repunit r_b(n): {repunit(params.b, params.n)}",
        "generators: " + " ".join(str(x) for x in gens),
        f"gcd: {g} ({'coprime' if g == 1 else 'not coprime'})",
        f"unique minimal system predicted (a < b-1): {predicted}",
    ]
    return 0, {
        "instance": {"a": params.a, "b": params.b, "n": params.n},
        "repunit": repunit(params.b, params.n),
        "generators": list(gens),
        "gcd": g,
        "unique_predicted": predicted,
    }, "\n".join(lines)


def report_to_dict(report: VerificationReport) -> dict:
    p = report.params
    inst = {"a": p.a, "b": p.b, "n": p.n}
    if report.i is not None:
        inst["i"] = report.i
    return {
        "instance": inst,
        "claims": [
            {"name": report.name, "status": c.status, "detail": c.detail, "ms": c.ms}
            for c in report.claims
        ],
        "timing": {report.name: sum(c.ms for c in report.claims)},
        "overall": report.overall(),
    }


def render_text(reports: Sequence[VerificationReport]) -> str:
    lines = []
    for report in reports:
        p = report.params
        index = "" if report.i is None else f" i={report.i}"
        lines.append(f"instance: a={p.a} b={p.b} n={p.n}{index}")
        for c in report.claims:
            lines.append(f"  [{c.status}] {report.name}: {c.detail} ({c.ms} ms)")
        lines.append(f"overall: {report.overall()}")
    return "\n".join(lines)


def exit_code(reports: Sequence[VerificationReport]) -> int:
    return max((VERDICT_CODES[r.overall()] for r in reports), default=0)


def cmd_verify(args) -> Result:
    claim = args.claim_pos or args.claim_opt
    if not claim:
        raise ValueError("verify needs a claim name (positional or --claim)")
    if args.claim_pos and args.claim_opt and args.claim_pos != args.claim_opt:
        raise ValueError("positional claim and --claim disagree")
    spec = claim_spec(claim)
    params = _params_from_args(args, dict(spec.defaults))
    if args.all_i and not spec.per_index:
        raise ValueError(f"claim {claim!r} does not take an order index")
    reports = run_claim(claim, params, i=args.i)
    return exit_code(reports), [report_to_dict(r) for r in reports], render_text(reports)


_RANGE = re.compile(r"^(\d+)(?:\.\.(\d+))?$")


def _parse_range(text: str, flag: str) -> list[int]:
    m = _RANGE.match(text.strip())
    if not m:
        raise ValueError(f"--{flag} wants K or LO..HI, got {text!r}")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise ValueError(f"--{flag} range {text!r} is empty")
    return list(range(lo, hi + 1))


def _sweep_row(params: InstanceParams) -> dict:
    g = gcd_of_generators(params)
    grading = scalar_grading(params)
    order = build_order_i(generators(params), 1)
    tor = toric_ideal(grading, order)
    splits = betti_splits(list(tor.elements), grading)
    count = sum(s.new_generators() for s in splits.values())
    unique = unique_minimal_system(splits)
    predicate = params.a < params.b - 1
    if g == 1 and params.n > 3:
        agree = "yes" if unique == predicate else "NO"
    else:
        agree = "-"
    return {
        "a": params.a, "b": params.b, "n": params.n, "gcd": g,
        "mingens": count, "unique": unique, "predicate": predicate, "agree": agree,
    }


def cmd_sweep(args) -> Result:
    for field in ("a", "b", "n"):
        if getattr(args, field) is None:
            raise ValueError(f"missing --{field} (K or LO..HI)")
    grid = [
        InstanceParams(a, b, n)
        for a in _parse_range(args.a, "a")
        for b in _parse_range(args.b, "b")
        for n in _parse_range(args.n, "n")
    ]
    rows = [_sweep_row(p) for p in grid]
    lines = [f"{'a':>3} {'b':>3} {'n':>3} {'gcd':>5} {'mingens':>8} {'unique':>7} {'a<b-1':>6} {'agree':>6}"]
    for r in rows:
        lines.append(
            f"{r['a']:>3} {r['b']:>3} {r['n']:>3} {r['gcd']:>5} {r['mingens']:>8} "
            f"{'yes' if r['unique'] else 'no':>7} "
            f"{'yes' if r['predicate'] else 'no':>6} {r['agree']:>6}"
        )
    code = 1 if any(r["agree"] == "NO" for r in rows) else 0
    return code, {"rows": rows}, "\n".join(lines)


def _resolve_order(args, params: InstanceParams):
    name = args.order
    if args.i is not None and name != "prec-i":
        raise ValueError(f"--i is read only by --order prec-i, not by --order {name}")
    weights = generators(params)
    if name == "example5":
        if params.n != 5:
            raise ValueError("the example5 order needs n=5")
        return name, five_variable_order(weights)
    m = re.match(r"^prec-(i|\d+)$", name)
    if not m:
        raise ValueError(f"unknown order {name!r}; use prec-i, prec-<k>, or example5")
    if m.group(1) == "i":
        if args.i is None:
            raise ValueError("--order prec-i needs --i")
        idx = args.i
    else:
        idx = int(m.group(1))
    return f"prec-{idx}", build_order_i(weights, idx)


def _source_basis(source: str, params: InstanceParams, order, trace):
    family, grading_of = SOURCES[source]
    if family:
        return groebner_reduced(family(params), order, trace)
    return toric_ideal(grading_of(params), order, trace)


def cmd_groebner(args) -> Result:
    params = _params_from_args(args)
    label, order = _resolve_order(args, params)
    gb = _source_basis(args.source, params, order, _trace_fn(args))
    listing = [format_binomial(g) for g in gb.elements]
    minimal, reduced = is_minimal_basis(gb.elements), is_reduced_basis(gb.elements)
    head = (
        f"source={args.source} order={label} elements={len(listing)} "
        f"minimal={'yes' if minimal else 'no'} reduced={'yes' if reduced else 'no'}"
    )
    return 0 if minimal and reduced else 1, {
        "source": args.source, "order": label,
        "minimal": minimal, "reduced": reduced,
        "elements": listing,
    }, "\n".join([head] + listing)


def _source_for_oracle(source: str, params: InstanceParams, trace):
    family, grading_of = SOURCES[source]
    grading = grading_of(params)
    if family:
        return list(family(params)), grading
    return list(toric_ideal(grading, trace=trace).elements), grading


def cmd_betti(args) -> Result:
    params = _params_from_args(args)
    gens, grading = _source_for_oracle(args.source, params, _trace_fn(args))
    degs = betti_degrees(gens, grading)  # in (sum, degree) order
    total = sum(degs.values())
    lines = [f"source={args.source} degrees={len(degs)} total={total}"]
    lines += [f"degree {d[0] if len(d) == 1 else d}: {k}" for d, k in degs.items()]
    return 0, {
        "source": args.source,
        "degrees": [{"degree": list(d), "count": k} for d, k in degs.items()],
        "total": total,
    }, "\n".join(lines)


def cmd_unique(args) -> Result:
    params = _params_from_args(args)
    gens, grading = _source_for_oracle(args.source, params, _trace_fn(args))
    unique = has_unique_minimal_system(gens, grading)
    return 0, {"source": args.source, "unique": unique}, (
        f"source={args.source} unique minimal binomial system: {'yes' if unique else 'no'}")


_HANDLERS = {
    "info": cmd_info,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "groebner": cmd_groebner,
    "betti": cmd_betti,
    "unique": cmd_unique,
}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code, payload, text = _HANDLERS[args.command](args)
        if args.format != "text":
            text = json.dumps(payload, indent=2)
        try:
            sink = open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout)
            with sink as fh:
                fh.write(text + "\n")
                fh.flush()
        except OSError as exc:
            if not args.out:
                # what stays buffered goes nowhere, not into an error at interpreter exit
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
            target = f"--out {args.out}" if args.out else "stdout"
            raise ValueError(f"cannot write {target}: {exc.strerror or exc}") from None
        return code
    except (ValueError, ExponentOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a fault in the program, never to be read as "a check failed" (1)
        msg = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
