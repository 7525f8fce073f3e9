"""Regenerate answer_key.json: non-coprime sweep rows, each by two routes.

Run from the repository root:

    python3 perfbench/make_key.py

For every non-coprime (a, b, n) in the sweep box the toric ideal's minimal
generator count comes from the fiber oracle and, independently, from greedy
Groebner pruning (`prune_redundant_generators`).  An entry is written only
when the two counts agree; a disagreement is reported and the script exits 1.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repunit_toric.families import scalar_grading, toric_ideal  # noqa: E402
from repunit_toric.fibers import (  # noqa: E402
    has_unique_minimal_system,
    minimal_generator_count,
    prune_redundant_generators,
)
from repunit_toric.orders import build_order_i  # noqa: E402
from repunit_toric.semigroup import InstanceParams, generators  # noqa: E402

from workloads import BOXES, KEY_PATH, semigroup_gcd  # noqa: E402


def main() -> int:
    box = BOXES["sweep"]
    entries = []
    disagreements = 0
    for a in box.a:
        for b in box.b:
            for n in box.n:
                g = semigroup_gcd(a, b, n)
                if g == 1:
                    continue
                params = InstanceParams(a, b, n)
                grading = scalar_grading(params)
                order = build_order_i(generators(params), 1)
                toric = list(toric_ideal(grading, order).elements)
                oracle = minimal_generator_count(toric, grading)
                pruned = len(prune_redundant_generators(toric, order))
                if oracle != pruned:
                    print(f"a={a} b={b} n={n}: oracle {oracle} != pruning {pruned}",
                          file=sys.stderr)
                    disagreements += 1
                    continue
                entries.append({
                    "a": a, "b": b, "n": n, "gcd": g, "mingens": oracle,
                    "unique": has_unique_minimal_system(toric, grading),
                })
                print(f"a={a} b={b} n={n} gcd={g} mingens={oracle}", file=sys.stderr)
    rows = ",\n  ".join(json.dumps(e) for e in entries)
    KEY_PATH.write_text(
        '{"about": "Non-coprime sweep rows of the sweep box; each mingens value agreed '
        'between the fiber oracle and prune_redundant_generators.",\n'
        f' "sweep_noncoprime": [\n  {rows}\n ]}}\n',
        encoding="utf-8",
    )
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main())
