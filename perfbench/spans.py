"""Spans around the program's layers, recorded from outside the program.

The traced run wraps the public functions of each layer module and rebinds
every `repunit_toric` module attribute that refers to one of them, because
modules import functions by name (`families` holds its own `buchberger`).
Spans are kept in memory: name, start, end, parent and verdict id.  A
span's self time is its duration minus the part of it that its child spans
cover.

Left unwrapped on purpose: the `binomials` module and `MatrixOrder.compare`
(millions of calls in one saturation), and the integer helpers
`intlinalg.dot` and `intlinalg.xgcd`.  Their time lands in the self time of
the layer that calls them.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

LAYERS = ("cli", "verify", "families", "fibers", "groebner", "orders", "intlinalg")
ONLY = {"cli": {"main"}}
SKIP = {"intlinalg": {"dot", "xgcd"}}

# Layer metric -> workloads on which the layer must stay idle.  These are
# the bypass predictions each workload was chosen for; a traced run that
# breaks one reports correct = false.
IDLE_ON = {
    "families.toric_ideal.calls": ("certify", "oracle"),
    "groebner.saturate_torus.calls": ("certify", "oracle"),
    "groebner.buchberger.calls": ("oracle",),
    "groebner.is_groebner_basis.calls": ("sweep", "oracle"),
    "groebner.calls": ("oracle",),
    "fibers.calls": ("certify",),
}


def _pairs_reduced(args, kwargs, result) -> tuple:
    # S-pairs the exhaustive check reduces: every non-coprime pair of
    # nonzero elements (all of them when the check passes).
    elems = [g for g in args[0] if g.plus != g.minus]
    n = 0
    for j in range(len(elems)):
        lt_j = elems[j].plus
        for i in range(j):
            if any(x and y for x, y in zip(elems[i].plus, lt_j)):
                n += 1
    return (n,)


# Counts taken from a wrapped call's arguments and result after its span
# ends: span name -> (count names, function of (args, kwargs, result)).
OBSERVERS = {
    "groebner.buchberger": (("elements_out",), lambda a, k, r: (len(r.elements),)),
    "groebner.reduce_gb": (
        ("elements_in", "elements_kept"),
        lambda a, k, r: (len(a[0].elements), len(r.elements)),
    ),
    "groebner.is_groebner_basis": (("pairs",), _pairs_reduced),
    "fibers.enumerate_fiber": (("monomials",), lambda a, k, r: (len(r.monomials),)),
    "fibers.betti_splits": (
        ("degrees", "contributing"),
        lambda a, k, r: (len(r), sum(1 for s in r.values() if s.new_generators() > 0)),
    ),
    "verify.run_claim": (("checks",), lambda a, k, r: (sum(len(rep.claims) for rep in r),)),
}


class Tracer:
    """Installs span wrappers into the program's modules and aggregates them."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent span or None, verdict]
        self.counts: dict[str, Counter] = defaultdict(Counter)  # span name -> counts
        self.names: list[str] = []  # wrapped functions
        self.verdict = None
        self._root = None
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def begin_verdict(self, verdict_id: int) -> None:
        """Spans from now on belong to this verdict; the next top span is its root."""
        self.verdict = verdict_id
        self._root = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        keys, observe = OBSERVERS.get(name, ((), None))
        spans = self.spans
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A span opened on a worker thread (the sweep pool) has an empty
            # stack there; it belongs under the verdict's root span.
            parent = stack[-1] if stack else self._root
            record = [name, 0.0, 0.0, parent, self.verdict]
            if parent is None:
                self._root = record
            spans.append(record)
            stack.append(record)
            record[1] = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf()
                stack.pop()
            if observe is not None:
                self.counts[name].update(dict(zip(keys, observe(args, kwargs, result))))
            return result

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"repunit_toric.{layer}"]
            for attr, fn in vars(mod).items():
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") or attr in SKIP.get(layer, ()):
                    continue
                if layer in ONLY and attr not in ONLY[layer]:
                    continue
                self.names.append(f"{layer}.{attr}")
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "repunit_toric" and not modname.startswith("repunit_toric."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, in span order."""
        children = defaultdict(list)
        for rec in self.spans:
            if rec[3] is not None:
                children[id(rec[3])].append(rec)
        out = []
        for rec in self.spans:
            start, end = rec[1], rec[2]
            covered = 0.0
            reach = start
            for child in sorted(children.get(id(rec), ()), key=lambda c: c[1]):
                lo, hi = max(child[1], reach), min(child[2], end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(end - start - covered)
        return out

    def metrics(self) -> dict[str, float]:
        """Every per-layer figure the spans and counts give, by metric name."""
        out: dict[str, float] = {}
        for name in list(LAYERS) + self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.s"] = 0.0
            for key in OBSERVERS.get(name, ((), None))[0]:
                out[f"{name}.{key}"] = self.counts[name][key]
        out["groebner.saturate_torus.buchberger_runs"] = 0
        for rec, self_s in zip(self.spans, self.self_times()):
            name = rec[0]
            layer = name.split(".", 1)[0]
            out[f"{layer}.calls"] += 1
            out[f"{layer}.self_s"] += self_s
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
            out[f"{name}.s"] += rec[2] - rec[1]
            if name == "groebner.buchberger" and self._under(rec, "groebner.saturate_torus"):
                out["groebner.saturate_torus.buchberger_runs"] += 1
        out["groebner.reduce_gb.kept_ratio"] = _ratio(
            out["groebner.reduce_gb.elements_kept"], out["groebner.reduce_gb.elements_in"])
        out["fibers.betti_splits.contributing_ratio"] = _ratio(
            out["fibers.betti_splits.contributing"], out["fibers.betti_splits.degrees"])
        out["verify.checks"] = out["verify.run_claim.checks"]
        out["trace.spans"] = len(self.spans)
        return out

    @staticmethod
    def _under(rec: list, ancestor: str) -> bool:
        parent = rec[3]
        while parent is not None:
            if parent[0] == ancestor:
                return True
            parent = parent[3]
        return False

    def write(self, path: Path) -> None:
        """Spans as JSON lines; parents are referenced by line number."""
        path.parent.mkdir(parents=True, exist_ok=True)
        index = {id(rec): pos for pos, rec in enumerate(self.spans)}
        with path.open("w", encoding="utf-8") as fh:
            for pos, rec in enumerate(self.spans):
                parent = index[id(rec[3])] if rec[3] is not None else None
                fh.write(json.dumps({
                    "id": pos, "name": rec[0], "start": rec[1], "end": rec[2],
                    "parent": parent, "verdict": rec[4],
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    """num / den, or 0.0 when the layer did no work."""
    return num / den if den else 0.0


def bypass_violations(workload: str, metrics: dict[str, float]) -> list[str]:
    return [
        f"{name} = {metrics.get(name, 0)} on {workload}, predicted 0"
        for name, idle in IDLE_ON.items()
        if workload in idle and metrics.get(name, 0) != 0
    ]
