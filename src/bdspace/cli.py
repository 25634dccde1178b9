"""Batch driver: build, augment, verify, query and dump.

Builds are reproducible byte for byte: every artifact is canonical JSON
(sorted keys, fixed separators) derived from the config alone, and the
manifest records content hashes.  Each verification suite is
one library call whose reports carry their own verdict (``bdcore.Verdict``:
PASS, FAIL, INCONCLUSIVE or AT-CAP).  ``verify`` prints one line per report,
``[VERDICT] suite: name :: first violation or reason``, and stores the
reports with their verdicts and reasons in ``report.json``, from which
``report`` prints the same lines and an ``overall:`` line naming the
INCONCLUSIVE and AT-CAP counts.  The exit code is nonzero exactly when
some check FAILED: INCONCLUSIVE and AT-CAP exit zero, since a finite stage
can fail to witness a bound without refuting it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import bdcore
from .construction import (build_embedding, check_block_rank_order,
                           verify_coding, verify_cuts, verify_embedding)
from .decomp import (SeedSpace, build_norming_set_D,
                     check_subsequential_upper, optimal_c_decomposition,
                     tsirelson_seed, verify_norming_set)
from .exact import FinVec
from .families import RegularFamily, schreier
from .tsirelson import TsirelsonSpec, tsirelson_norm


def _frac(s) -> Fraction:
    return Fraction(s) if not isinstance(s, list) else Fraction(s[0], s[1])


def parse_family(text: str) -> RegularFamily:
    """Family descriptors like 'schreier:1' or 'schreier:w^1*2+3'."""
    kind, _, arg = text.partition(":")
    if kind != "schreier":
        raise ValueError(f"unknown family {text!r}")
    arg = arg or "1"
    if arg.isdigit():
        return schreier(int(arg))
    cnf = []
    for term in arg.split("+"):
        term = term.strip()
        if term.startswith("w^"):
            e, _, m = term[2:].partition("*")
            cnf.append((int(e), int(m or 1)))
        elif term.startswith("w"):
            _, _, m = term.partition("*")
            cnf.append((1, int(m or 1)))
        else:
            cnf.append((0, int(term)))
    return schreier(tuple(cnf))


def parse_vector(text: str, universe: str = "nat") -> FinVec:
    """Vectors like '3:1,4:1,5:-1/2'."""
    entries = {}
    text = text.strip()
    if text:
        for part in text.split(","):
            i, _, v = part.partition(":")
            entries[int(i)] = Fraction(v)
    return FinVec(universe, entries)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), indent=None)


def _write(path: Path, obj) -> str:
    data = canonical_json(obj)
    path.write_text(data + "\n")
    return hashlib.sha256((data + "\n").encode()).hexdigest()


# ---------------------------------------------------------------------------
# config and build
# ---------------------------------------------------------------------------

def load_config(path: str) -> dict:
    cfg = json.loads(Path(path).read_text())
    errors = []
    seed = cfg.get("seed", {})
    if seed.get("kind") not in ("tsirelson", "explicit"):
        errors.append("seed.kind must be 'tsirelson' or 'explicit'")
    if "stage_bound" not in cfg or int(cfg["stage_bound"]) < 1:
        errors.append("stage_bound must be a positive integer")
    try:
        c = _frac(seed.get("c", "1/16"))
        eps = _frac(cfg.get("eps", c / 2))
        if not (0 < eps < c <= Fraction(1, 16)):
            errors.append("need 0 < eps < c <= 1/16")
    except (ValueError, ZeroDivisionError) as exc:
        errors.append(f"bad rational in config: {exc}")
    if "eps_seq" in cfg:
        try:
            seq = [_frac(e) for e in cfg["eps_seq"]]
            if sum(seq) >= eps / 8:
                errors.append("sum of eps_i must be < eps/8")
            for n in range(len(seq)):
                if sum(seq[n + 1:], Fraction(0)) >= seq[n] / 2:
                    errors.append("eps_i tails must drop below eps_n/2")
        except ValueError as exc:
            errors.append(f"bad eps_seq: {exc}")
    if errors:
        raise SystemExit("config rejected:\n  " + "\n  ".join(errors))
    return cfg


def realize_seed(cfg: dict) -> SeedSpace:
    s = cfg["seed"]
    c = _frac(s.get("c", "1/16"))
    eps = _frac(cfg.get("eps", c / 2))
    if s["kind"] == "tsirelson":
        fam = parse_family(s.get("family", "schreier:1"))
        blocks = int(s.get("blocks", 3))
        seed = tsirelson_seed(s.get("name", "tsirelson"), fam, c, blocks,
                              eps=eps,
                              unconditional=s.get("unconditional", True))
    else:
        uni = f"seed:{s['name']}"
        norming = [FinVec.from_json_obj({"universe": uni, "entries": e})
                   for e in s["norming"]]
        seed = SeedSpace(s["name"], s["block_dims"], norming, c, eps,
                         eps_seq=[_frac(e) for e in cfg["eps_seq"]]
                         if "eps_seq" in cfg else None,
                         unconditional=s.get("unconditional", False))
    issues = seed.validate()
    if issues:
        raise SystemExit("seed rejected:\n  " + "\n  ".join(issues))
    return seed


def realize_build(cfg: dict):
    seed = realize_seed(cfg)
    caps = cfg.get("stage_caps")
    D = build_norming_set_D(seed, size_cap=int(cfg.get("size_cap", 20000)))
    eb = build_embedding(seed, D, int(cfg["stage_bound"]), stage_caps=caps)
    return seed, D, eb


def _load_manifest(build: str) -> dict:
    """The build's manifest, after checking every dump against its hash."""
    manifest_path = Path(build) / "manifest.json"
    if not manifest_path.exists():
        raise SystemExit(f"no manifest in {build}")
    manifest = json.loads(manifest_path.read_text())
    for name, h in manifest.get("hashes", {}).items():
        data = (Path(build) / name).read_text()
        if hashlib.sha256(data.encode()).hexdigest() != h:
            raise SystemExit(f"corrupt dump: {name} hash mismatch")
    return manifest


def cmd_build(args) -> int:
    cfg = load_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    seed, D, eb = realize_build(cfg)
    hashes = {}
    hashes["seed.json"] = _write(out / "seed.json", seed.to_json_obj())
    hashes["normingset.json"] = _write(out / "normingset.json", D.to_json_obj())
    hashes["stages.json"] = _write(out / "stages.json", eb.bd.to_json_obj())
    coding = {
        str(g): {
            "tuple": [[r.numerator, r.denominator, j] for r, j in inf.entries],
            "case": inf.case,
            "rank": inf.rank,
            "xi": eb.code_of.get(inf.xi) if inf.xi else None,
            "eta": eb.code_of.get(inf.eta) if inf.eta else None,
        }
        for g, inf in sorted(eb.info.items())
    }
    hashes["coding.json"] = _write(out / "coding.json", coding)
    manifest = {
        "schema": "bdspace-build-v1",
        "config": cfg,
        "seed_hash": hashes["seed.json"],
        "stage_cardinalities": {str(n): len(v)
                                for n, v in sorted(eb.bd.stages.items())},
        "norming_set_size": len(D.members),
        "norming_set_pruned": D.pruned,
        "pruned": eb.pruned,
        "prune_log": eb.prune_log,
        "hashes": hashes,
    }
    _write(out / "manifest.json", manifest)
    print(f"build written to {out} "
          f"({sum(len(v) for v in eb.bd.stages.values())} elements, "
          f"{len(D.members)} norming functionals)")
    return 0


# ---------------------------------------------------------------------------
# augment
# ---------------------------------------------------------------------------

def cmd_augment(args) -> int:
    from .augmentation import (AugmentedBuild, certify_lower_estimate,
                               verify_augmentation)
    cfg = _load_manifest(args.build)["config"]
    seed, D, eb = realize_build(cfg)
    vfam = parse_family(args.v_family)
    vspec = TsirelsonSpec(vfam, Fraction(args.v_c))
    c_aug = Fraction(args.c) if args.c else seed.c
    aug = AugmentedBuild(eb, vspec, c_aug, mode=args.mode)
    carriers = [int(r) for r in args.carriers.split(",")] if args.carriers else []
    try:
        thetas = [aug.make_carrier(r) for r in carriers]
        cert = certify_lower_estimate(
            aug, [aug.carrier_block(t) for t in thetas]) if thetas else None
    except bdcore.BuildError as exc:
        raise SystemExit(f"augment rejected: {exc}") from None
    rep = verify_augmentation(aug)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    hashes = {"stages.json": _write(out / "stages.json", aug.bd.to_json_obj())}
    manifest = {
        "schema": "bdspace-augment-v1",
        "base": str(args.build),
        "base_config": cfg,
        "v_family": args.v_family,
        "v_c": str(vspec.c),
        "c_aug": str(c_aug),
        "mode": args.mode,
        "carriers": carriers,
        "theta_cardinalities": {str(n): sum(1 for g in aug.bd.stage(n)
                                            if aug.is_theta(g))
                                for n in sorted(aug.bd.stages)},
        "dense_set_ledger": [
            {"interval": [b.k, b.n],
             "l1": [b.vec.l1().numerator, b.vec.l1().denominator],
             "proximity": None if b.proximity is None else
                 [b.proximity.numerator, b.proximity.denominator],
             "bound": None if b.bound is None else
                 [b.bound.numerator, b.bound.denominator]}
            for b in aug.bentries
        ],
        "certificate": cert.to_json_obj() if cert else None,
        "verification_ok": rep.ok,
        "violations": [str(v) for v in rep.violations],
        "hashes": hashes,
    }
    _write(out / "manifest.json", manifest)
    status = cert.status if cert else "NO-CERT"
    print(f"augmentation written to {out} (certificate: {status}, "
          f"verification {'ok' if rep.ok else 'FAILED'})")
    return 1 if not rep.ok or status is bdcore.Verdict.FAIL else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_runners(seed, D, eb, cfg):
    """Suite name -> a call returning the suite's reports.  Each report
    carries its own verdict; nothing here judges one."""
    bd = eb.bd
    theta = _frac(cfg.get("theta", 2 * seed.c))
    upper = TsirelsonSpec(parse_family(cfg.get("upper_family", "schreier:1")),
                          _frac(cfg.get("upper_c", "1/2")))
    upper_members = [m.vec for m in D.members][:int(cfg.get("upper_members", 12))]
    return {
        "schema": lambda: [bdcore.validate_schema(bd)],
        "weight-split": lambda: [bdcore.condition_weight_split(bd, theta)],
        "projection-norms": lambda: [bdcore.compute_constants(bd, theta)],
        "isometry": lambda: [bdcore.verify_extension_isometry(bd, m)
                             for m in sorted(bd.stages)],
        "compat": lambda: [bdcore.verify_extension_compatibility(bd)],
        "analysis": lambda: [bdcore.verify_analysis(bd)],
        "idempotence": lambda: [bdcore.verify_projection_idempotence(bd)],
        "dual-norms": lambda: [bdcore.verify_dual_norms(
            bd, bdcore.decomposition_bound(bd, theta))],
        "coding": lambda: [verify_coding(eb)] + [
            check_block_rank_order(eb, j)
            for j in range(1, eb.nblocks_covered() + 1)],
        "norming-set": lambda: [verify_norming_set(D, eb.nblocks_covered())],
        "embedding": lambda: [verify_embedding(eb)],
        "cuts": lambda: [verify_cuts(eb)],
        "upper-estimates": lambda: [check_subsequential_upper(
            upper_members, seed, upper, _frac(cfg.get("upper_C", 4))).report()],
    }


def _verdict_line(r: dict) -> str:
    """A report.json entry as one line, ending in a violation or reason."""
    note = r["violations"][0] if r["violations"] else r["reason"]
    return (f"[{r['verdict']}] {r['suite']}: {r['name']}"
            + (f" :: {note}" if note else ""))


def cmd_verify(args) -> int:
    cfg = _load_manifest(args.build)["config"]
    seed, D, eb = realize_build(cfg)
    runners = _suite_runners(seed, D, eb, cfg)
    if args.suite and args.suite not in runners:
        raise SystemExit(f"unknown suite {args.suite!r}; have {sorted(runners)}")
    names = [args.suite] if args.suite else sorted(runners)
    out_reports = []
    for n in names:
        for rep in runners[n]():
            out_reports.append(rep.to_json_obj() | {"suite": n})
            print(_verdict_line(out_reports[-1]))
    failed = any(r["verdict"] == bdcore.Verdict.FAIL for r in out_reports)
    report = {"schema": "bdspace-report-v1", "build": str(args.build),
              "reports": out_reports, "failed": failed}
    _write(Path(args.build) / "report.json", report)
    return 1 if failed else 0


def cmd_report(args) -> int:
    path = Path(args.build) / "report.json"
    if not path.exists():
        raise SystemExit(f"no report.json in {args.build}; run verify first")
    rep = json.loads(path.read_text())
    if not all("verdict" in r and "reason" in r for r in rep["reports"]):
        raise SystemExit(f"{path} has no verdicts (written before they were "
                         "recorded); run verify again")
    for r in rep["reports"]:
        print(_verdict_line(r))
    verdicts = [r["verdict"] for r in rep["reports"]]
    unsettled = ", ".join(
        f"{verdicts.count(v.value)} {v}"
        for v in (bdcore.Verdict.INCONCLUSIVE, bdcore.Verdict.AT_CAP)
        if v.value in verdicts)
    print("overall:", ("FAIL" if rep["failed"] else "PASS")
          + (f" with {unsettled}" if unsettled else ""))
    return 1 if rep["failed"] else 0


def cmd_dump(args) -> int:
    path = Path(args.build) / f"{args.what}.json"
    if not path.exists():
        raise SystemExit(f"{path} not found")
    print(json.dumps(json.loads(path.read_text()), indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# ad-hoc queries
# ---------------------------------------------------------------------------

def cmd_norm(args) -> int:
    fam = parse_family(args.family)
    spec = TsirelsonSpec(fam, Fraction(args.c))
    vec = parse_vector(args.vector)
    print(tsirelson_norm(vec, spec))
    return 0


def cmd_decompose(args) -> int:
    vec = parse_vector(args.vector, universe="l1")
    norm = (lambda v: v.l1()) if args.norm == "l1" else (lambda v: v.linf())
    dec = optimal_c_decomposition(vec, Fraction(args.c), norm)
    blocks = [{str(i): str(v) for i, v in b.items()} for b in dec.blocks()]
    print(json.dumps({"breakpoints": list(dec.breakpoints), "blocks": blocks}))
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="bdspace",
        description="exact finite-stage Bourgain-Delbaen constructions")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="run a construction from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("augment", help="augment a built space toward a target")
    p.add_argument("--build", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--v-family", default="schreier:1")
    p.add_argument("--v-c", default="1/2")
    p.add_argument("--c", default=None, help="augmentation weight (default: seed c)")
    p.add_argument("--mode", default="fdd", choices=["fdd", "free"])
    p.add_argument("--carriers", default="2,6,11",
                   help="comma-separated carrier ranks ('' for none)")
    p.set_defaults(fn=cmd_augment)

    p = sub.add_parser("verify", help="run verification suites on a build")
    p.add_argument("--build", required=True)
    p.add_argument("--suite", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("report", help="summarize the last verification report")
    p.add_argument("--build", required=True)
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser("dump", help="pretty-print a build artifact")
    p.add_argument("--build", required=True)
    p.add_argument("--what", default="manifest",
                   choices=["manifest", "stages", "seed", "normingset",
                            "coding", "report"])
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser("norm", help="exact Tsirelson norm of a vector")
    p.add_argument("--family", default="schreier:1")
    p.add_argument("--c", default="1/2")
    p.add_argument("vector", nargs="?", default=None)
    p.add_argument("--vector", dest="vector_opt", default=None)
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("decompose", help="optimal greedy c-decomposition")
    p.add_argument("--c", default="1/2")
    p.add_argument("--norm", default="l1", choices=["l1", "linf"])
    p.add_argument("vector")
    p.set_defaults(fn=cmd_decompose)

    args = ap.parse_args(argv)
    if getattr(args, "vector_opt", None) and not args.vector:
        args.vector = args.vector_opt
    if args.command == "norm" and not args.vector:
        ap.error("norm requires a vector (positional or --vector)")
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
