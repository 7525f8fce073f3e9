"""Tests of the verdict benchmark itself, on its tiny smoke boxes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from spans import IDLE_ON

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(capsys, *argv: str) -> dict:
    assert run.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def smoke(capsys, workload: str, trace: int, seed: int = 3) -> dict:
    return bench(capsys, "--workload", workload, "--seed", str(seed), "--seconds", "60",
                 "--trace", str(trace), "--smoke")


def test_declared_workloads_are_the_boxes():
    assert sorted(WORKLOADS) == sorted(workloads.BOXES) == sorted(workloads.SMOKE_BOXES)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_declared_metric_with_its_unit(capsys, workload, trace):
    result = smoke(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_and_idle_layers_stay_idle(capsys, workload):
    first, second = (smoke(capsys, workload, 1)["metrics"] for _ in range(2))
    counts = {name for name, m in first.items() if m["unit"] in ("count", "ratio")}
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    for name, idle in IDLE_ON.items():
        if workload in idle:
            assert first[name]["value"] == 0, name
        else:
            assert first[name]["value"] > 0, name  # the workload does reach the layer


def test_draw_is_seeded_and_without_replacement():
    for workload in WORKLOADS:
        one = workloads.draw(workload, 11)
        assert one == workloads.draw(workload, 11)
        assert len({v.argv for v in one}) == len(one) == workloads.BOXES[workload].draw
        assert all("--format" in v.argv and "--jobs" not in v.argv for v in one)


def test_answer_key_covers_every_noncoprime_sweep_instance():
    key = workloads.load_key()
    for v in workloads.box_verdicts("sweep", workloads.BOXES["sweep"]):
        g = workloads.semigroup_gcd(v.a, v.b, v.n)
        assert ((v.a, v.b, v.n) in key) == (g != 1)
        if g != 1:
            assert key[(v.a, v.b, v.n)]["gcd"] == g


def test_failures_are_counted_and_the_run_goes_on():
    _, cli, draw, key = run.setup("oracle", 5, smoke=True)
    outcomes = iter(["raise", "exit", "wrong", "ok"] * len(draw))

    def stub(argv):
        outcome = next(outcomes)
        if outcome == "raise":
            raise RuntimeError("torus saturation did not stabilize")
        if outcome == "exit":
            return 1
        if outcome == "wrong":
            print(json.dumps({"source": "minors-x", "unique": None, "total": -1, "degrees": []}))
            return 0
        return cli.main(argv)

    stats = run.run_verdicts(stub, draw, key, seconds=60)
    assert stats.attempted == len(draw) == 8
    assert stats.failures == {"raised RuntimeError": 2, "exit 1": 2, "wrong verdict": 2}
    assert stats.failed == 6 and stats.wrong == 2
    assert sum(t is None for t in stats.latency) == 2
    metrics = run.end_to_end(stats, [0.1], [0.004, 0.004])
    assert metrics["verdict_ok_share"] == 2 / 8


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("output", ["", "[]", "{}", '[{"instance": 1}]', '{"rows": [1]}'])
def test_malformed_output_is_a_wrong_verdict(workload, output):
    v = workloads.draw(workload, 1, smoke=True)[0]
    with pytest.raises(workloads.WrongVerdict):
        workloads.check(v, output, workloads.load_key())


def test_quantile_estimates():
    assert run.quantile([7.0] * 5, 0.9) == pytest.approx(7.0)
    values = [float(i) for i in range(1, 1002)]
    assert run.quantile(values, 0.5) == pytest.approx(501.0, rel=1e-3)
    assert run.quantile(values, 0.9) == pytest.approx(901.0, rel=2e-3)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "5", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
