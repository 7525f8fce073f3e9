"""Command line front end.

Subcommands: info, verify, sweep, groebner, betti, unique.  Each handler
returns data, (exit code, JSON payload, text view), the text view as a
function that builds it; main alone renders the chosen format, building
the text view only for --format text, writes stdout or --out and returns
the code.  Exit codes: 0 all checks passed, 1 a verification failed, 2
usage error (exponent overflow and an unwritable --out or stdout, such as
a closed pipe, included) or a claim refused the instance, 3 internal
error, 130 interrupted (Ctrl-C).  The argument parser is built once per
process, on the first main call, and keeps each subcommand's own parser:
main parses a call that names a subcommand first with that parser alone,
and hands every other argv, and any call that parser leaves arguments
over from, to the full parser, so help and usage errors read as the full
parser writes them.  Each request has one spelling: verify names its
claim with --claim, groebner its order with --order, --format is text
or json, and --trace is groebner's alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from contextlib import nullcontext
from json.encoder import encode_basestring_ascii
from typing import Callable, Sequence

from .binomials import ExponentOverflowError, format_binomial
from .families import (
    minor_words,
    minors_closed_chain,
    minors_open_chain,
    projective_grading,
    scalar_grading,
    toric_basis,
    toric_ideal,
)
from .fibers import rule_words, unique_minimal_system, word_splits
from .groebner import groebner_reduced, is_minimal_basis, is_reduced_basis
from .orders import build_order_i, five_variable_order
from .semigroup import InstanceParams, gcd_of_generators, generators, repunit
from .verify import CLAIMS, FAIL, PASS, REFUSED, VerificationReport, claim_spec, run_claim

# a verify run's exit code: a refusal outweighs a failure, which outweighs a pass
VERDICT_CODES = {PASS: 0, FAIL: 1, REFUSED: 2}

# --source name -> (closed or open chain minors, or None for the toric ideal;
# True for the weight grading, False for the repunit and ones rows)
SOURCES = {
    "minors-x": (True, True),
    "minors-y": (False, False),
    "toric-i": (None, True),
    "toric-j": (None, False),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repunit-toric",
        description="Exact verification toolkit for repunit-curve binomial ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand -> its own parser, for main's one parse

    def add_common(p: argparse.ArgumentParser, ranges: bool = False) -> None:
        kind = str if ranges else int
        p.add_argument("--a", type=kind, help="instance parameter a >= 1")
        p.add_argument("--b", type=kind, help="instance parameter b >= 1")
        p.add_argument("--n", type=kind, help="number of generators, n >= 2")
        p.add_argument("--format", choices=("text", "json"), default="text",
                       help="output format")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")

    def add_engine(p: argparse.ArgumentParser) -> None:
        add_common(p)
        p.add_argument("--source", choices=SOURCES, required=True)

    p_info = sub.add_parser("info", help="print instance basics")
    add_common(p_info)

    p_verify = sub.add_parser("verify", help="verify a named claim")
    add_common(p_verify)
    p_verify.add_argument("--claim", required=True,
                          help=f"one of {', '.join(sorted(CLAIMS))}")
    p_verify.add_argument("--i", type=int,
                          help="order index for per-index claims, which run every i without it")

    p_sweep = sub.add_parser("sweep", help="tabulate a parameter grid")
    add_common(p_sweep, ranges=True)

    p_gb = sub.add_parser("groebner", help="list a reduced basis")
    add_engine(p_gb)
    p_gb.add_argument("--order", required=True,
                      help="prec-<k> (x_k cheapest) or example5")
    p_gb.add_argument(
        "--trace", action="store_true",
        help="stream the Groebner engine's steps to stderr: inputs, S-pairs, "
             "skipped pairs and the elimination header",
    )

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


# (exit code, JSON payload, the text view's builder)
Result = tuple[int, object, Callable[[], str]]


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

    def text() -> str:
        return "\n".join([
            f"instance: a={params.a} b={params.b} n={params.n}",
            f"repunit r_b(n): {repunit(params.b, params.n)}",
            "generators: " + " ".join(str(x) for x in gens),
            f"gcd: {g} ({'coprime' if g == 1 else 'not coprime'})",
            f"unique minimal system predicted (a < b-1): {predicted}",
        ])

    return 0, {
        "instance": {"a": params.a, "b": params.b, "n": params.n},
        "repunit": repunit(params.b, params.n),
        "generators": list(gens),
        "gcd": g,
        "unique_predicted": predicted,
    }, text


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
    params = _params_from_args(args, dict(claim_spec(args.claim).defaults))
    reports = run_claim(args.claim, params, i=args.i)
    payload = [report_to_dict(r) for r in reports]
    return exit_code(reports), payload, functools.partial(render_text, reports)


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
    splits = _oracle_splits("toric-i", params)
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
    code = 1 if any(r["agree"] == "NO" for r in rows) else 0
    return code, {"rows": rows}, functools.partial(_sweep_text, rows)


def _sweep_text(rows: list[dict]) -> str:
    lines = [f"{'a':>3} {'b':>3} {'n':>3} {'gcd':>5} {'mingens':>8} {'unique':>7} {'a<b-1':>6} {'agree':>6}"]
    for r in rows:
        lines.append(
            f"{r['a']:>3} {r['b']:>3} {r['n']:>3} {r['gcd']:>5} {r['mingens']:>8} "
            f"{'yes' if r['unique'] else 'no':>7} "
            f"{'yes' if r['predicate'] else 'no':>6} {r['agree']:>6}"
        )
    return "\n".join(lines)


def _resolve_order(name: str, params: InstanceParams):
    weights = generators(params)
    if name == "example5":
        if params.n != 5:
            raise ValueError("the example5 order needs n=5")
        return name, five_variable_order(weights)
    m = re.match(r"^prec-(\d+)$", name)
    if not m:
        raise ValueError(f"unknown order {name!r}; use prec-<k> or example5")
    idx = int(m.group(1))
    return f"prec-{idx}", build_order_i(weights, idx)


def _source_basis(source: str, params: InstanceParams, order, trace):
    closed, scalar = SOURCES[source]
    if closed is None:
        return toric_ideal(scalar_grading(params) if scalar else projective_grading(params),
                           order, trace)
    family = minors_closed_chain if closed else minors_open_chain
    return groebner_reduced(family(params), order, trace)


def cmd_groebner(args) -> Result:
    params = _params_from_args(args)
    label, order = _resolve_order(args.order, params)
    trace = (lambda line: print(f"trace: {line}", file=sys.stderr)) if args.trace else None
    gb = _source_basis(args.source, params, order, trace)
    listing = [format_binomial(g) for g in gb.elements]
    minimal, reduced = is_minimal_basis(gb), is_reduced_basis(gb)

    def text() -> str:
        head = (
            f"source={args.source} order={label} elements={len(listing)} "
            f"minimal={'yes' if minimal else 'no'} reduced={'yes' if reduced else 'no'}"
        )
        return "\n".join([head] + listing)

    return 0 if minimal and reduced else 1, {
        "source": args.source, "order": label,
        "minimal": minimal, "reduced": reduced,
        "elements": listing,
    }, text


def _oracle_splits(source: str, params: InstanceParams):
    # both toric sources run under build_order_i(weights, 1), as sweep's
    # rows do: the count and the verdict are invariants of the ideal
    closed, scalar = SOURCES[source]
    if closed is None:
        grading = scalar_grading(params) if scalar else projective_grading(params)
        order = build_order_i(generators(params), 1)
        words = rule_words(toric_basis(grading, order).rules, grading)
    else:
        words = minor_words(params, closed)
    return word_splits(words, params.n)


def cmd_betti(args) -> Result:
    params = _params_from_args(args)
    splits = _oracle_splits(args.source, params)
    # in (sum, degree) order
    degs = {d: k for d, s in splits.items() if (k := s.new_generators()) > 0}
    total = sum(degs.values())
    return 0, {
        "source": args.source,
        "degrees": [{"degree": list(d), "count": k} for d, k in degs.items()],
        "total": total,
    }, functools.partial(_betti_text, args.source, degs, total)


def _betti_text(source: str, degs: dict, total: int) -> str:
    lines = [f"source={source} degrees={len(degs)} total={total}"]
    lines += [f"degree {d[0] if len(d) == 1 else d}: {k}" for d, k in degs.items()]
    return "\n".join(lines)


def cmd_unique(args) -> Result:
    params = _params_from_args(args)
    unique = unique_minimal_system(_oracle_splits(args.source, params))
    return 0, {"source": args.source, "unique": unique}, (
        lambda: f"source={args.source} unique minimal binomial system: {'yes' if unique else 'no'}")


def render_json(x, pad: str = "\n") -> str:
    """json.dumps(x, indent=2), byte for byte.

    indent sends json.dumps to its pure-Python encoder; this renders the
    payloads' own types directly.  pad is a newline and the indentation of
    x's level; any other type, or a dict with a key that is not a string,
    goes to json.dumps, whose lines are indented by that pad.
    """
    if x is True:
        return "true"
    if x is False:
        return "false"
    if x is None:
        return "null"
    kind = type(x)
    if kind is str:
        return encode_basestring_ascii(x)
    if kind is int:
        return repr(x)
    inner = pad + "  "
    if kind is list:
        if not x:
            return "[]"
        items = (render_json(v, inner) for v in x)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    if kind is dict and all(type(k) is str for k in x):
        if not x:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + render_json(v, inner) for k, v in x.items())
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    return json.dumps(x, indent=2).replace("\n", pad)


_HANDLERS = {
    "info": cmd_info,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "groebner": cmd_groebner,
    "betti": cmd_betti,
    "unique": cmd_unique,
}


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """build_parser().parse_args(argv), in one parse when argv[0] names a subcommand.

    The full parser hands a subcommand everything after its name, so that
    subcommand's parser alone reads the same arguments; a call it leaves
    arguments over from, or that names no subcommand, goes to the full
    parser, which writes the help, usage errors and "unrecognized
    arguments" of every such call.
    """
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is not None:
        args, extra = command.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        code, payload, view = _HANDLERS[args.command](args)
        text = view() if args.format == "text" else render_json(payload)
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
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # a fault in the program, never to be read as "a check failed" (1)
        msg = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {msg}", file=sys.stderr)
        return 3


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
