"""bdspace benchmark: certifying pipelines and Tsirelson queries.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Every bdspace process is a fresh
interpreter with the checkout's ``src`` first on its path and without
``BDSPACE_WORKERS``, and only one runs at a time.

Workloads (see NOTES.md for why each was chosen); each has three timed
phases:

* ``acc-pipeline``: ``bdspace build``, ``verify`` (all suites) and
  ``augment`` (defaults) on the acceptance config, each phase the CPU time
  of its command's process.
* ``tsirelson-queries``: cold norms, a seeded norm sweep and the S_1 dual
  norming set at N = 6, timed inside one process (``queries.py``).
* ``halfnorm-pipeline``: the pipeline on the (S_1, 1/2)-normed seed.  It is
  not in BENCHMARK.json because one run takes about 80 s; run it by hand.

Times are CPU seconds (user + system) of the processes doing the work.  The
end-to-end metrics are the run's total, set-up and peak memory; single
phases vary too much between runs on a shared machine to carry a bound, so
they are reported with the per-layer metrics and in the run records.

Set-up (``setup_s``) is the median CPU time of several fresh interpreters
that import bdspace and generate the inputs (``inputs.py``).  Outputs are
checked after the timed phases; every check counts into ``attempted`` and
``failed``.  With ``--trace 1`` every layer is wrapped (``tracing.py``) and
the per-layer metrics are printed instead.
The last line of standard output is the JSON result; each run is also
appended to ``bench/out/runs.jsonl`` with its Python version, core count
and source revision.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
RECORDS = OUT / "runs.jsonl"
PY = sys.executable
SETUP_REPS = 9

# sha256 of the build dumps, pinned at the commit that added the benchmark;
# seed.json is left out on purpose (dropping dominated generators may
# legitimately change it)
PINNED_DUMPS = {
    "acc-pipeline": {
        "stages.json": "abb51af3e0ca74eb6e4eae81546d4ca61b8df7cbc1a4435c1b838ee5f4cae44d",
        "normingset.json": "6da8c75937dd03096a8db2ad97b5a39d339358dbd9d470b512b047d302f58fd2",
        "coding.json": "21bc2548e0aefcf71431b095d86f89996965d31be6478f763de9b5c93f53643e",
    },
    "halfnorm-pipeline": {
        "stages.json": "911d4d5ab0cd8dd9d6bd964636ff5ad6cb4a5dae78f1db8695804776a74153cf",
        "normingset.json": "8fcef9e6eee407669dde7d7d599cd0fef81cd92aaf8a3b029d977440e41e5444",
        "coding.json": "3feb24364df5e7c74941d81362488a6da4760cf4a3ef7755b40f3abf31056549",
    },
}
WORKLOADS = [*PINNED_DUMPS, "tsirelson-queries"]
SUITES = ["analysis", "coding", "compat", "cuts", "dual-norms", "embedding",
          "idempotence", "isometry", "norming-set", "projection-norms",
          "schema", "upper-estimates", "weight-split"]

END_TO_END = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
PHASES = ["phase1_s", "phase2_s", "phase3_s"]


class Totals:
    """Per-layer totals merged over the traced processes of one run."""

    def __init__(self, files):
        self.spans: dict = {}
        self.counts: dict = {}
        self.peaks: dict = {}
        self.wrapped_calls = 0
        for f in files:
            part = json.loads(Path(f).read_text())
            for name, (calls, incl, self_s) in part["spans"].items():
                acc = self.spans.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += incl
                acc[2] += self_s
            for name, v in part["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + v
            for name, v in part["peaks"].items():
                self.peaks[name] = max(self.peaks.get(name, 0), v)
            self.wrapped_calls += part["wrapped_calls"]

    def calls(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[0]

    def s(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[1]

    def self_s(self, name):
        return self.spans.get(name, [0, 0.0, 0.0])[2]

    def count(self, name):
        return self.counts.get(name, 0)

    def peak(self, name):
        return self.peaks.get(name, 0)


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER = [
    ("lp.solves", "count", lambda t: t.calls("lp")),
    ("lp.s", "s", lambda t: t.s("lp")),
    ("lp.self_s", "s", lambda t: t.self_s("lp")),
    ("lp.tableau_cells", "count", lambda t: t.count("lp.tableau_cells")),
    ("lp.infeasible", "count", lambda t: t.count("lp.infeasible")),
    ("decomp.generators", "count", lambda t: t.peak("decomp.generators")),
    ("decomp.dual_norm.calls", "count",
     lambda t: t.calls("decomp.dual_norm")),
    ("decomp.dual_norm.lp_solves", "count",
     lambda t: t.count("decomp.dual_norm.lp_solves")),
    ("decomp.dual_norm.hit_ratio", "ratio",
     lambda t: 1 - _ratio(t.count("decomp.dual_norm.lp_solves"),
                          t.calls("decomp.dual_norm"))
     if t.calls("decomp.dual_norm") else 0.0),
    ("decomp.dual_norm.self_s", "s", lambda t: t.self_s("decomp.dual_norm")),
    ("decomp.validate.s", "s", lambda t: t.s("decomp.validate")),
    ("decomp.build_D.s", "s", lambda t: t.s("decomp.build_D")),
    ("decomp.D_members", "count", lambda t: t.peak("decomp.D_members")),
    ("decomp.norming_certificate.s", "s",
     lambda t: t.s("decomp.norming_certificate")),
    ("decomp.upper_estimates.s", "s", lambda t: t.s("decomp.upper_estimates")),
    ("tsirelson.norm.calls", "count", lambda t: t.calls("tsirelson.norm")),
    ("tsirelson.norm.s", "s", lambda t: t.s("tsirelson.norm")),
    ("tsirelson.memo_entries", "count",
     lambda t: t.peak("tsirelson.memo_entries")),
    ("tsirelson.memo_hit_ratio", "ratio",
     lambda t: _ratio(t.count("tsirelson.norm.hits"),
                      t.calls("tsirelson.norm"))),
    ("tsirelson.generate.s", "s", lambda t: t.s("tsirelson.generate")),
    ("tsirelson.generate.members", "count",
     lambda t: t.count("tsirelson.generate.members")),
    ("tsirelson.norming_functional.s", "s",
     lambda t: t.s("tsirelson.norming_functional")),
    ("families.is_member.calls", "count",
     lambda t: t.calls("families.is_member")),
    ("families.is_member.s", "s", lambda t: t.s("families.is_member")),
    ("bdcore.apply_Jm.calls", "count", lambda t: t.calls("bdcore.apply_Jm")),
    ("bdcore.apply_Jm.s", "s", lambda t: t.s("bdcore.apply_Jm")),
    ("bdcore.isometry.s", "s", lambda t: t.s("bdcore.isometry")),
    ("bdcore.projection_norms.s", "s",
     lambda t: t.s("bdcore.projection_norms")),
    ("bdcore.dual_norms.s", "s", lambda t: t.s("bdcore.dual_norms")),
    ("bdcore.elements", "count", lambda t: t.peak("bdcore.elements")),
    ("exact.to_d.calls", "count", lambda t: t.calls("exact.to_d")),
    ("exact.to_d.s", "s", lambda t: t.s("exact.to_d")),
    ("construction.build_embedding.s", "s",
     lambda t: t.s("construction.build_embedding")),
    ("construction.verify_embedding.s", "s",
     lambda t: t.s("construction.verify_embedding")),
    ("construction.embed_phi.calls", "count",
     lambda t: t.calls("construction.embed_phi")),
    ("augmentation.setup.s", "s", lambda t: t.s("augmentation.setup")),
    ("augmentation.certify.s", "s", lambda t: t.s("augmentation.certify")),
    ("augmentation.verify.s", "s", lambda t: t.s("augmentation.verify")),
    ("cli.realize_build.calls", "count",
     lambda t: t.calls("cli.realize_build")),
    ("cli.realize_build.s", "s", lambda t: t.s("cli.realize_build")),
    *[(f"cli.suite.{suite}.s", "s",
       lambda t, suite=suite: t.s(f"cli.suite.{suite}")) for suite in SUITES],
    ("trace.wrapped_calls", "count", lambda t: t.wrapped_calls),
]


# ---------------------------------------------------------------------------
# running the workloads
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("BDSPACE_WORKERS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def cpu_of_children() -> float:
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def run_child(argv, log: Path) -> tuple[float, float, int]:
    """Run one process to completion; returns (CPU s, wall s, exit code)."""
    with log.open("a") as out:
        cpu, start = cpu_of_children(), perf_counter()
        proc = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=out,
                              stderr=subprocess.STDOUT)
        wall = perf_counter() - start
    return cpu_of_children() - cpu, wall, proc.returncode


def set_up(workload: str, seed: int, work: Path) -> float:
    times = []
    for _ in range(SETUP_REPS):
        cpu, _, code = run_child([PY, str(BENCH / "inputs.py"), workload,
                                  str(seed), str(work / "inputs")],
                                 work / "setup.log")
        if code != 0:
            raise SystemExit(f"input generation failed; see {work}/setup.log")
        times.append(cpu)
    return statistics.median(times)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_pipeline(workload: str, work: Path, spans: list | None):
    """Returns (CPU s per command, checks, info)."""
    build = work / "build"
    commands = [
        ["build", "--config", str(work / "inputs" / "config.json"),
         "--out", str(build)],
        ["verify", "--build", str(build)],
        ["augment", "--build", str(build), "--out", str(build / "aug")],
    ]
    phases, walls, checks = [], [], []
    for i, args in enumerate(commands):
        if spans is None:
            argv = [PY, "-m", "bdspace.cli", *args]
        else:
            spans.append(work / f"spans-{i}.json")
            argv = [PY, str(BENCH / "tracing.py"), str(spans[-1]), *args]
        cpu, wall, code = run_child(argv, work / "pipeline.log")
        phases.append(cpu)
        walls.append(wall)
        checks.append((f"{args[0]}-exit-0", code == 0, f"exit {code}"))
        if code != 0:
            break

    for name, pinned in PINNED_DUMPS[workload].items():
        path = build / name
        got = sha256(path) if path.exists() else "missing"
        checks.append((f"dump-{name}", got == pinned, got))
    report_path = build / "report.json"
    reports = (json.loads(report_path.read_text())["reports"]
               if report_path.exists() else [])
    checks.append(("verify-report-complete",
                   {r["suite"] for r in reports} == set(SUITES),
                   f"{len(reports)} reports"))
    for r in reports:
        checks.append((f"verify-{r['suite']}-{r['name']}", r["ok"],
                       "; ".join(r["violations"][:1])))
    aug_path = build / "aug" / "manifest.json"
    aug = json.loads(aug_path.read_text()) if aug_path.exists() else {}
    cert = aug.get("certificate") or {}
    checks.append(("augment-certificate-pass", cert.get("status") == "PASS",
                   str(cert.get("status"))))
    checks.append(("augment-verification-ok",
                   aug.get("verification_ok") is True,
                   "; ".join(aug.get("violations", [])[:1])))
    return phases, checks, {"wall_s": walls}


def run_queries(work: Path, spans: list | None):
    """Returns (CPU s per phase, checks, info)."""
    result = work / "result.json"
    argv = [PY, str(BENCH / "queries.py"), str(work / "inputs" / "inputs.json"),
            str(result)]
    if spans is not None:
        spans.append(work / "spans.json")
        argv.append(str(spans[-1]))
    _, _, code = run_child(argv, work / "queries.log")
    if code != 0 or not result.exists():
        return [], [("queries-exit-0", False, f"exit {code}")], {}
    out = json.loads(result.read_text())
    phases = [out["phases"][p]["cpu_s"] for p in ("cold", "sweep", "generate")]
    return phases, [tuple(c) for c in out["checks"]], out["info"]


def measure(workload: str, seed: int, traced: bool) -> dict:
    """One run: set-up, the timed phases, then the output checks."""
    work = OUT / f"{workload}-{os.getpid()}-{int(traced)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = set_up(workload, seed, work)
        spans: list | None = [] if traced else None
        if workload == "tsirelson-queries":
            phases, checks, info = run_queries(work, spans)
        else:
            phases, checks, info = run_pipeline(workload, work, spans)
        failed = [c for c in checks if not c[1]]
        for name, _, detail in failed:
            print(f"FAILED check {name}: {detail}", file=sys.stderr)
        if failed:
            for log in sorted(work.glob("*.log")):
                tail = log.read_text().splitlines()[-15:]
                print(f"--- {log.name}\n" + "\n".join(tail), file=sys.stderr)
        phases += [0.0] * (3 - len(phases))
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        metrics = {"setup_s": setup_s, **dict(zip(PHASES, phases)),
                   "total_s": sum(phases), "peak_rss_mb": peak_kb / 1024}
        totals = Totals(p for p in spans if p.exists()) if traced else None
        return {"workload": workload, "seed": seed, "trace": int(traced),
                "metrics": metrics, "info": info, "totals": totals,
                "attempted": len(checks), "failed": len(failed)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


# ---------------------------------------------------------------------------
# run records
# ---------------------------------------------------------------------------

def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "bdspace").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_revision() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def record(run: dict, seconds: int, digest: str) -> None:
    line = {k: v for k, v in run.items() if k != "totals"}
    line.update(python=platform.python_version(), nproc=os.cpu_count(),
                git_revision=git_revision(), src_digest=digest,
                seconds=seconds, time=time.strftime("%Y-%m-%dT%H:%M:%S"))
    with RECORDS.open("a") as f:
        f.write(json.dumps(line) + "\n")


def untraced_totals(workload: str, digest: str) -> list[float]:
    if not RECORDS.exists():
        return []
    out = []
    for line in RECORDS.read_text().splitlines():
        rec = json.loads(line)
        if (rec["workload"] == workload and rec["trace"] == 0
                and rec["src_digest"] == digest):
            out.append(rec["metrics"]["total_s"])
    return out


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True,
                    help="recorded only: every workload does a fixed amount "
                         "of work, so runs stay comparable across commits")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [SRC / "bdspace" / "cli.py", ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"not a bdspace checkout: missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    digest = src_digest()

    if args.trace:
        if not untraced_totals(args.workload, digest):
            # the overhead needs an untraced reference of the same source
            record(measure(args.workload, args.seed, False), args.seconds,
                   digest)
        run = measure(args.workload, args.seed, True)
    else:
        run = measure(args.workload, args.seed, False)
    record(run, args.seconds, digest)

    m = run["metrics"]
    print(f"{args.workload} seed {args.seed}: phases "
          + " / ".join(f"{m[k]:.3f}" for k in PHASES)
          + f" s, total {m['total_s']:.3f} s, set-up {m['setup_s']:.3f} s, "
          f"peak RSS {m['peak_rss_mb']:.1f} MB, failed_share "
          f"{_ratio(run['failed'], run['attempted']):.4f} "
          f"({run['failed']}/{run['attempted']} checks)")
    if run["info"]:
        print(json.dumps(run["info"]))

    if args.trace:
        metrics = {name: {"value": get(run["totals"]), "unit": unit}
                   for name, unit, get in PER_LAYER}
        metrics.update({k: {"value": m[k], "unit": "s"} for k in PHASES})
        reference = statistics.median(untraced_totals(args.workload, digest))
        metrics["trace.total_s"] = {"value": m["total_s"], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": m["total_s"] - reference,
                                       "unit": "s"}
    else:
        metrics = {name: {"value": m[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": run["failed"] == 0,
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
