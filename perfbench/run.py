"""Verdict benchmark: time to verdict and verdict throughput of repunit-toric.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

One caller issues the seeded draw of CLI calls through
`repunit_toric.cli.main(argv)` in this process, each after the previous one
returned (a closed loop), until the draw is done or `--seconds` have passed.
Every verdict is checked against its answer (see workloads.py).  A call that
raises, exits with a code other than 0 or gives a wrong answer is a failure;
the run goes on.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
A readable summary, failures included, goes to standard error.  `--smoke`
runs tiny boxes for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from spans import Tracer, bypass_violations

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 7
MIN_TAIL = 10  # samples a run must leave beyond its p90

# The host's speed drifts by up to 40% over minutes (a shared 2-CPU VM), and
# CPU time drifts with wall time.  So a fixed pure-Python reference loop runs
# before and after every set-up and every verdict, and each of those times is
# scaled to the host speed at which that loop takes REF_NOMINAL_S, by the
# mean of the two samples around it.  Raw figures go to standard error.
REF_LOOPS = 12000
REF_NOMINAL_S = 0.004


def reference_spin() -> float:
    """Seconds one fixed loop of tuple compares and dict updates takes now."""
    t0 = time.perf_counter()
    table = {}
    key = (3, 1, 4, 1, 5)
    for i in range(REF_LOOPS):
        u = (i & 7, key[i % 5], i % 3, 1, 2)
        if u > key:
            table[u] = table.get(u, 0) + i
    return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.BOXES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny boxes, for the benchmark's tests")
    return p.parse_args(argv)


def import_program():
    """Import repunit_toric afresh from this checkout's src/ and return its cli."""
    for name in [m for m in sys.modules if m == "repunit_toric" or m.startswith("repunit_toric.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("repunit_toric.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"repunit_toric came from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, smoke: bool):
    """Import, draw the inputs and load the answer key; returns (seconds, cli, draw, key)."""
    t0 = time.perf_counter()
    cli = import_program()
    draw = workloads.draw(workload, seed, smoke)
    key = workloads.load_key()
    for v in draw:
        if v.workload == "sweep":
            workloads.expected_sweep_row(v, key)  # a missing key entry fails before any verdict
    return time.perf_counter() - t0, cli, draw, key


def speeds(ref: list) -> list:
    """Scale factor of each interval between consecutive reference samples."""
    return [2 * REF_NOMINAL_S / (x + y) for x, y in zip(ref, ref[1:])]


@dataclass
class RunStats:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    latency: list = field(default_factory=list)  # call seconds per verdict, None if it raised
    busy: list = field(default_factory=list)  # seconds per verdict, call and answer check
    ref: list = field(default_factory=list)  # reference_spin() around every verdict
    failures: Counter = field(default_factory=Counter)
    examples: list = field(default_factory=list)

    def fail(self, kind: str, message: str) -> None:
        self.failed += 1
        self.failures[kind] += 1
        if len(self.examples) < 5:
            self.examples.append(message)


def run_verdicts(call, draw, key, seconds: float, tracer: Tracer | None = None) -> RunStats:
    """Issue the draw through call(argv) -> exit code, one call at a time."""
    stats = RunStats()
    perf = time.perf_counter
    start = perf()
    for vid, v in enumerate(draw):
        if perf() - start >= seconds:
            break
        stats.ref.append(reference_spin())
        stats.attempted += 1
        if tracer is not None:
            tracer.begin_verdict(vid)
        out = io.StringIO()
        label = " ".join(v.argv)
        raised = None
        t0 = perf()
        try:
            with redirect_stdout(out):
                rc = call(list(v.argv))
        except SystemExit as exc:  # argparse rejects a usage error this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            raised = exc
        t1 = perf()
        if raised is not None:
            stats.fail(f"raised {type(raised).__name__}", f"{label}: {type(raised).__name__}: {raised}")
        elif rc != 0:
            stats.fail(f"exit {rc}", f"{label}: exit code {rc}, expected 0")
        else:
            try:
                workloads.check(v, out.getvalue(), key)
            except workloads.WrongVerdict as exc:
                stats.wrong += 1
                stats.fail("wrong verdict", f"{label}: {exc}")
        stats.latency.append(None if raised is not None else t1 - t0)
        stats.busy.append(perf() - t0)
    stats.ref.append(reference_spin())
    return stats


def _beta_cf(a: float, b: float, x: float) -> float:
    # continued fraction of the incomplete beta function (modified Lentz)
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 300):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= c * d
        if abs(c * d - 1.0) < 1e-13:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1) / (a + b + 2):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a beta-weighted mean of all
    order statistics, with about half the run-to-run spread of one order
    statistic on these heavy-tailed latencies."""
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        return math.nan
    a, b = q * (n + 1), (1 - q) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], xs))


def end_to_end(stats: RunStats, setup_times, setup_ref, scaled: bool = True) -> dict[str, float]:
    """End-to-end figures, each time scaled by the host speed around it."""
    run_speed = speeds(stats.ref) if scaled else [1.0] * stats.attempted
    setup_speed = speeds(setup_ref) if scaled else [1.0] * len(setup_times)
    lat = [t * f for t, f in zip(stats.latency, run_speed) if t is not None]
    busy = sum(t * f for t, f in zip(stats.busy, run_speed))
    good = stats.attempted - stats.failed
    return {
        "verdicts_per_s": good / busy,
        "verdict_ms_p50": quantile(lat, 0.5) * 1000,
        "verdict_ms_p90": quantile(lat, 0.9) * 1000,
        "setup_s": statistics.median(t * f for t, f in zip(setup_times, setup_speed)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verdict_ok_share": good / stats.attempted,
    }


def select(values: dict[str, float], declared: list[dict]) -> dict:
    """The declared metrics, by name with unit; a missing one is an error."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repunit_toric").is_dir():
        print(f"error: no program source at {SRC / 'repunit_toric'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    setup_times, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        setup_ref.append(reference_spin())
        seconds, cli, draw, key = setup(args.workload, args.seed, args.smoke)
        setup_times.append(seconds)
    setup_ref.append(reference_spin())

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        # cli.main is looked up per call, so the traced run goes through its wrapper
        stats = run_verdicts(lambda a: cli.main(a), draw, key, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if stats.attempted == 0:
        print("error: no verdict was attempted", file=sys.stderr)
        return 1

    log = sys.stderr
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"draw={len(draw)} attempted={stats.attempted} busy_s={sum(stats.busy):.3f}", file=log)
    if stats.attempted < len(draw):
        print(f"warning: --seconds {args.seconds} ended the run after {stats.attempted} "
              f"of {len(draw)} verdicts", file=log)
    returned = sum(t is not None for t in stats.latency)
    tail = returned - math.ceil(0.9 * returned)
    if tail < MIN_TAIL and not args.smoke:
        print(f"warning: only {tail} samples beyond p90", file=log)
    print(f"  failed_share = {stats.failed / stats.attempted} share", file=log)
    print(f"  wrong_verdicts = {stats.wrong} count", file=log)
    for kind, count in sorted(stats.failures.items()):
        print(f"  failures[{kind}] = {count}", file=log)
    for message in stats.examples:
        print(f"  failed: {message}", file=log)

    ref_ms = statistics.median(setup_ref + stats.ref) * 1000
    print(f"  host: reference loop median {ref_ms:.4f} ms", file=log)
    correct = stats.failed == 0
    if tracer is None:
        for name, value in end_to_end(stats, setup_times, setup_ref, scaled=False).items():
            print(f"  raw {name} = {value}", file=log)
        metrics = select(end_to_end(stats, setup_times, setup_ref), spec["end_to_end"])
    else:
        # one time-weighted factor for every layer time of the run
        factor = sum(t * f for t, f in zip(stats.busy, speeds(stats.ref))) / sum(stats.busy)
        values = {
            name: value * factor if name.endswith((".s", "self_s")) else value
            for name, value in tracer.metrics().items()
        }
        values["trace.verdicts_per_s"] = end_to_end(stats, setup_times, setup_ref)["verdicts_per_s"]
        values["host.ref_ms"] = ref_ms
        metrics = select(values, spec["per_layer"])
        violations = bypass_violations(args.workload, values)
        for line in violations:
            print(f"  bypass prediction broken: {line}", file=log)
        correct = correct and not violations
        smoke = "-smoke" if args.smoke else ""
        tracer.write(SPANS_DIR / f"spans-{args.workload}{smoke}-seed{args.seed}.jsonl")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}", file=log)
    print(json.dumps({
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
