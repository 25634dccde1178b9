"""Make one workload's inputs from its seed, in a fresh interpreter.

    python bench/inputs.py WORKLOAD SEED OUT_DIR

The run's set-up time is the wall time of this script: interpreter start,
``import bdspace`` and input generation.  Pipelines get ``config.json``;
``tsirelson-queries`` gets ``inputs.json``.  The same seed always gives the
same files.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import bdspace.cli  # noqa: F401  (import cost belongs to set-up)
from bdspace.families import schreier
from bdspace.tsirelson import TsirelsonSpec, build_dual_norming_set

COLD_COORDS = 16       # cold norms on [1, 16]
SWEEP_VECTORS = 30_000
SWEEP_SUPPORT = 9      # criterion-1 style: support in [1, 9] ...
SWEEP_MAX_COORDS = 7   # ... with at most 7 coordinates ...
SWEEP_VALUES = ("1", "-1", "1/2", "-1/2")  # ... and entries +-1, +-1/2
ORACLE_SAMPLE = 100    # sweep vectors rechecked against the brute force


def pipeline_config(seed: dict) -> dict:
    return {"schema": "bdspace-config-v1", "seed": seed, "eps": "1/32",
            "stage_bound": 8}


def acc_config() -> dict:
    """The acceptance config: the 4-block seed normed by (S_1, 1/16)."""
    return pipeline_config({
        "kind": "tsirelson", "name": "acc", "family": "schreier:1",
        "c": "1/16", "blocks": 4, "unconditional": False})


def halfnorm_config() -> dict:
    """4 one-dimensional blocks normed by the (S_1, 1/2) tree functionals."""
    dns = build_dual_norming_set(TsirelsonSpec(schreier(1), Fraction(1, 2)),
                                 4, 4)
    norming = [v.to_json_obj()["entries"] for v in dns.members()]
    return pipeline_config({
        "kind": "explicit", "name": "halfnorm", "block_dims": [1] * 4,
        "c": "1/16", "unconditional": False, "norming": norming})


def queries_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    # magnitudes k/9 never equal 1 or 1/2, so the cold norms leave no memo
    # entries that the sweep could hit
    cold = {str(i): f"{rng.choice((1, -1)) * rng.randint(1, 8)}/9"
            for i in range(1, COLD_COORDS + 1)}
    sweep = []
    for _ in range(SWEEP_VECTORS):
        k = rng.randint(1, SWEEP_MAX_COORDS)
        support = sorted(rng.sample(range(1, SWEEP_SUPPORT + 1), k))
        sweep.append([[i, rng.choice(SWEEP_VALUES)] for i in support])
    oracle = sorted(rng.sample(range(SWEEP_VECTORS), ORACLE_SAMPLE))
    return {"cold": cold, "sweep": sweep, "oracle_sample": oracle}


def main(argv: list[str]) -> int:
    workload, seed, out = argv[0], int(argv[1]), Path(argv[2])
    out.mkdir(parents=True, exist_ok=True)
    if workload == "acc-pipeline":
        name, data = "config.json", acc_config()
    elif workload == "halfnorm-pipeline":
        name, data = "config.json", halfnorm_config()
    elif workload == "tsirelson-queries":
        name, data = "inputs.json", queries_inputs(seed)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    (out / name).write_text(json.dumps(data))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
