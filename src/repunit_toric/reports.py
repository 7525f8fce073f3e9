"""Structured pass/fail reports for named verification claims.

A report carries the instance it was run on and a list of claim results;
the JSON rendering carries every field, so downstream tooling reads CLI
output with json.loads instead of scraping text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence

PASS = "pass"
FAIL = "fail"
REFUSED = "refused"


@dataclass(frozen=True)
class InstanceRef:
    a: int
    b: int
    n: int
    i: int | None = None

    def label(self) -> str:
        base = f"a={self.a} b={self.b} n={self.n}"
        return base if self.i is None else f"{base} i={self.i}"


@dataclass(frozen=True)
class ClaimResult:
    name: str
    status: str
    detail: str
    ms: int = 0

    def __post_init__(self) -> None:
        if self.status not in (PASS, FAIL, REFUSED):
            raise ValueError(f"unknown status {self.status!r}")


@dataclass(frozen=True)
class VerificationReport:
    instance: InstanceRef
    claims: tuple[ClaimResult, ...]

    def overall(self) -> str:
        statuses = {c.status for c in self.claims}
        if REFUSED in statuses:
            return REFUSED
        if FAIL in statuses:
            return FAIL
        return PASS

    def timing(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for c in self.claims:
            out[c.name] = out.get(c.name, 0) + c.ms
        return out


def report_to_dict(report: VerificationReport) -> dict:
    inst = {"a": report.instance.a, "b": report.instance.b, "n": report.instance.n}
    if report.instance.i is not None:
        inst["i"] = report.instance.i
    return {
        "instance": inst,
        "claims": [
            {"name": c.name, "status": c.status, "detail": c.detail, "ms": c.ms}
            for c in report.claims
        ],
        "timing": report.timing(),
        "overall": report.overall(),
    }


def render_json(reports: Sequence[VerificationReport]) -> str:
    return json.dumps([report_to_dict(r) for r in reports], indent=2)


def render_text(reports: Iterable[VerificationReport]) -> str:
    lines = []
    for report in reports:
        lines.append(f"instance: {report.instance.label()}")
        for c in report.claims:
            lines.append(f"  [{c.status}] {c.name}: {c.detail} ({c.ms} ms)")
        lines.append(f"overall: {report.overall()}")
    return "\n".join(lines)


def exit_code(reports: Iterable[VerificationReport]) -> int:
    codes = {r.overall() for r in reports}
    if REFUSED in codes:
        return 2
    if FAIL in codes:
        return 1
    return 0
