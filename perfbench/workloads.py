"""Workload boxes, seeded draws and the answer key for the verdict benchmark.

A verdict is one call of the command line front end with `--format json`.
Each workload names a box of such calls; a run draws from its box by seed,
without replacement, so every call in a run is distinct.  Every verdict is
checked against the paper's closed forms, or, for non-coprime sweep rows
where no closed form exists, against the committed answer key.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import comb, gcd
from pathlib import Path

KEY_PATH = Path(__file__).resolve().parent / "answer_key.json"


@dataclass(frozen=True)
class Box:
    """Ranges of one workload and how many calls a run draws from them."""

    a: range
    b: range
    n: range
    draw: int


# Sweep and oracle draw their whole box (the seed sets the order), so every
# run measures the same population and the spread between runs is the
# host's, not the sampling's.  Certify draws 750 of its 2720 calls; those
# are light-tailed (p90 about twice the median), so sampling noise is small.
BOXES = {
    "sweep": Box(range(1, 9), range(2, 7), range(4, 7), draw=120),
    "certify": Box(range(1, 9), range(2, 7), range(7, 11), draw=750),
    "oracle": Box(range(1, 7), range(2, 7), range(5, 8), draw=270),
}

# Tiny boxes for the benchmark's own tests: same code paths, seconds per run.
SMOKE_BOXES = {
    "sweep": Box(range(1, 4), range(2, 4), range(4, 5), draw=6),
    "certify": Box(range(1, 3), range(2, 4), range(4, 5), draw=8),
    "oracle": Box(range(1, 3), range(2, 4), range(4, 5), draw=8),
}

ORACLE_CALLS = (
    ("betti", "minors-x"),
    ("betti", "minors-y"),
    ("unique", "minors-x"),
)


def repunit(b: int, k: int) -> int:
    return (b**k - 1) // (b - 1)


def semigroup_gcd(a: int, b: int, n: int) -> int:
    """gcd of a_i = r_b(n) + a * r_b(i-1), i = 1..n, from the closed form."""
    g = 0
    for i in range(1, n + 1):
        g = gcd(g, repunit(b, n) + a * repunit(b, i - 1))
    return g


@dataclass(frozen=True)
class Verdict:
    """One CLI call and the answer it must give."""

    workload: str
    argv: tuple[str, ...]
    a: int
    b: int
    n: int
    detail: tuple = ()


def _instance_flags(a: int, b: int, n: int) -> tuple[str, ...]:
    return ("--a", str(a), "--b", str(b), "--n", str(n), "--format", "json")


def box_verdicts(workload: str, box: Box) -> list[Verdict]:
    """Every call in the box, in a fixed order."""
    out = []
    for a in box.a:
        for b in box.b:
            for n in box.n:
                flags = _instance_flags(a, b, n)
                if workload == "sweep":
                    out.append(Verdict(workload, ("sweep",) + flags, a, b, n))
                elif workload == "certify":
                    for claim in ("prop-gb1", "thm-gb2"):
                        for i in range(1, n + 1):
                            argv = ("verify", "--claim", claim, "--i", str(i)) + flags
                            out.append(Verdict(workload, argv, a, b, n, (claim, i)))
                elif workload == "oracle":
                    for command, source in ORACLE_CALLS:
                        argv = (command, "--source", source) + flags
                        out.append(Verdict(workload, argv, a, b, n, (command, source)))
                else:
                    raise ValueError(f"unknown workload {workload!r}")
    return out


def draw(workload: str, seed: int, smoke: bool = False) -> list[Verdict]:
    """The seeded draw of one run, without replacement."""
    box = (SMOKE_BOXES if smoke else BOXES)[workload]
    population = box_verdicts(workload, box)
    return random.Random(seed).sample(population, min(box.draw, len(population)))


def load_key(path: Path = KEY_PATH) -> dict[tuple[int, int, int], dict]:
    """Non-coprime sweep rows keyed by (a, b, n)."""
    data = json.loads(path.read_text(encoding="utf-8"))
    key = {}
    for entry in data["sweep_noncoprime"]:
        key[(entry["a"], entry["b"], entry["n"])] = {
            "gcd": entry["gcd"], "mingens": entry["mingens"], "unique": entry["unique"],
        }
    return key


class WrongVerdict(Exception):
    """A call completed but its output disagrees with the answer."""


def expected_sweep_row(v: Verdict, key: dict) -> dict:
    a, b, n = v.a, v.b, v.n
    predicate = a < b - 1
    row = {"a": a, "b": b, "n": n, "predicate": predicate}
    g = semigroup_gcd(a, b, n)
    if g == 1:
        row.update(gcd=1, mingens=comb(n, 2), unique=predicate, agree="yes")
    else:
        if (a, b, n) not in key:
            raise KeyError(f"answer key has no entry for sweep a={a} b={b} n={n}")
        row.update(key[(a, b, n)], agree="-")
    return row


def check(v: Verdict, output: str, key: dict) -> None:
    """Raise WrongVerdict unless the call's JSON output is the right answer."""
    try:
        _compare(v, json.loads(output), key)
    except (ValueError, LookupError, TypeError, AttributeError) as exc:
        raise WrongVerdict(f"unexpected output: {type(exc).__name__}: {exc}") from None


def _compare(v: Verdict, data, key: dict) -> None:
    if v.workload == "sweep":
        want = expected_sweep_row(v, key)
        rows = data.get("rows")
        if rows != [want]:
            raise WrongVerdict(f"sweep row {rows} != {want}")
    elif v.workload == "certify":
        claim, i = v.detail
        if not isinstance(data, list) or len(data) != 1:
            raise WrongVerdict("verify must report exactly one instance")
        report = data[0]
        want_inst = {"a": v.a, "b": v.b, "n": v.n, "i": i}
        if report["instance"] != want_inst:
            raise WrongVerdict(f"instance {report['instance']} != {want_inst}")
        if report["overall"] != "pass" or not report["claims"]:
            raise WrongVerdict(f"{claim} overall {report['overall']}")
        if any(c["status"] != "pass" or c["name"] != claim for c in report["claims"]):
            raise WrongVerdict(f"{claim} has a sub-check that did not pass")
    else:
        command, source = v.detail
        if data.get("source") != source:
            raise WrongVerdict(f"source {data.get('source')} != {source}")
        if command == "betti":
            want = comb(v.n, 2) if source == "minors-x" else comb(v.n - 1, 2)
            if data.get("total") != want or sum(d["count"] for d in data["degrees"]) != want:
                raise WrongVerdict(f"betti total {data.get('total')} != {want}")
        else:
            want = v.a < v.b - 1
            if data.get("unique") is not want:
                raise WrongVerdict(f"unique {data.get('unique')} != {want}")
