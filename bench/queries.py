"""The tsirelson-queries workload, run in one fresh interpreter.

    python bench/queries.py INPUTS.json RESULT.json [SPANS.json]

Three timed phases, in this order:

1. cold norms of one seeded vector on [1, 16] under (S_1, 1/2) and
   (S_2, 1/2), each followed by ``norming_functional`` on its [1, 9] prefix;
2. a sweep of seeded criterion-1-style vectors under (S_1, 1/2);
3. ``build_dual_norming_set`` for (S_1, 1/16) at depth and support 6.

The results are checked afterwards, untimed and untraced: the prefix
witnesses are admissible trees that pair with the prefix to exactly its
norm, a seeded sample of the sweep matches the brute-force oracle of
``tests/oracles.py``, and the dual norming set has its pinned size.  With a
third argument the bdspace layers are traced (see ``tracing.py``).
"""

from __future__ import annotations

import gc
import json
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import bf_tsirelson  # noqa: E402

from bdspace.exact import FinVec  # noqa: E402
from bdspace.families import is_admissible, schreier  # noqa: E402
from bdspace import tsirelson as ts  # noqa: E402
from bdspace.tsirelson import TsirelsonSpec, tree_support, tree_vec  # noqa: E402

HALF = Fraction(1, 2)
COLD_SPECS = {"S1": TsirelsonSpec(schreier(1), HALF),
              "S2": TsirelsonSpec(schreier(2), HALF)}
WITNESS_PREFIX = 9        # norming_functional has no memo: ~5x per coordinate
SWEEP_SPEC = COLD_SPECS["S1"]
GENERATE_SPEC = TsirelsonSpec(schreier(1), Fraction(1, 16))
GENERATE_N = 6
GENERATE_MEMBERS = 1460   # pinned at the commit that added the benchmark


def timed(fn):
    """Run ``fn``; returns ({"cpu_s", "wall_s"}, its result)."""
    gc.collect()
    cpu, wall = process_time(), perf_counter()
    out = fn()
    return {"cpu_s": process_time() - cpu, "wall_s": perf_counter() - wall}, out


def admissible_tree(tree, spec: TsirelsonSpec) -> bool:
    if tree[0] == "leaf":
        return tree[1] in (1, -1)
    kids = tree[1]
    if len(kids) < 2 or not all(admissible_tree(k, spec) for k in kids):
        return False
    try:
        return is_admissible([tree_support(k) for k in kids], spec.family)
    except ValueError:  # children not successive
        return False


def main(argv: list[str]) -> int:
    inputs = json.loads(Path(argv[0]).read_text())
    tracer = None
    if len(argv) > 2:
        import tracing
        tracer = tracing.install(argv[2])

    cold = {int(i): Fraction(v) for i, v in inputs["cold"].items()}
    prefix = {i: v for i, v in cold.items() if i <= WITNESS_PREFIX}
    sweep = [{i: Fraction(v) for i, v in vec} for vec in inputs["sweep"]]

    # calls go through the module so that traced wrappers are seen
    def cold_phase():
        return {name: (ts.tsirelson_norm(cold, spec),
                       ts.norming_functional(prefix, spec))
                for name, spec in COLD_SPECS.items()}

    def sweep_phase():
        return [ts.tsirelson_norm(x, SWEEP_SPEC) for x in sweep]

    def generate_phase():
        return ts.build_dual_norming_set(GENERATE_SPEC, GENERATE_N, GENERATE_N)

    cold_t, cold_out = timed(cold_phase)
    sweep_t, values = timed(sweep_phase)
    generate_t, dns = timed(generate_phase)
    if tracer:
        tracer.enabled = False

    checks = []
    prefix_vec = FinVec("nat", prefix)
    for name, spec in COLD_SPECS.items():
        norm, (value, tree, vec) = cold_out[name]
        ok = (tree is not None and admissible_tree(tree, spec)
              and vec == tree_vec(tree, spec)
              and vec.pair(prefix_vec) == value
              and value == ts.tsirelson_norm(prefix, spec)
              and max(abs(v) for v in cold.values()) <= norm)
        checks.append([f"cold-{name}-witness", ok, str(norm)])
    memo: dict = {}
    for idx in inputs["oracle_sample"]:
        items = tuple((i, abs(v)) for i, v in sorted(sweep[idx].items()))
        expected = bf_tsirelson(items, SWEEP_SPEC.family, SWEEP_SPEC.c, memo)
        checks.append([f"sweep-oracle-{idx}", values[idx] == expected,
                       f"{values[idx]} vs {expected}"])
    bounded = all(max(map(abs, x.values())) <= v <= sum(map(abs, x.values()))
                  for x, v in zip(sweep, values))
    checks.append(["sweep-linf-l1-bounds", bounded, ""])
    checks.append(["generate-members", len(dns.trees) == GENERATE_MEMBERS,
                   str(len(dns.trees))])

    result = {
        "phases": {"cold": cold_t, "sweep": sweep_t, "generate": generate_t},
        "checks": checks,
        "info": {"cold_norms": {n: str(o[0]) for n, o in cold_out.items()},
                 "sweep_vectors": len(sweep),
                 "norms_per_s": len(sweep) / sweep_t["cpu_s"],
                 "wall_s": [t["wall_s"] for t in (cold_t, sweep_t,
                                                  generate_t)],
                 "generate_members": len(dns.trees)},
    }
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
