"""Batch driver: build, augment, verify, query and dump.

Builds are reproducible byte for byte: every artifact is canonical JSON
(sorted keys, fixed separators) derived from the config alone, and the
manifest records content hashes.  ``verify`` and ``augment`` judge a
rebuild from the recorded config, so they refuse one whose dumps differ
from those hashes (``_rebuild``).  Each verification suite is
one library call whose reports carry their own verdict (``bdcore.Verdict``:
PASS, FAIL, INCONCLUSIVE or AT-CAP).  ``verify`` prints one line per report,
``[VERDICT] suite: name :: first violation or reason``, and stores the
reports with their verdicts and reasons in ``report.json``, from which
``report`` prints the same lines and an ``overall:`` line naming the
INCONCLUSIVE and AT-CAP counts.  The exit code is nonzero exactly when
some check FAILED: INCONCLUSIVE and AT-CAP exit zero, since a finite stage
can fail to witness a bound without refuting it.

Each command imports the layers it runs inside its own body, lower layers
first, so a process compiles only those: ``build`` and ``verify`` never load
the augmentation, and ``norm`` loads none of the BD core, the norming set or
the embedding.  Dumps are hashed with CPython's own SHA-256 module, not
``hashlib``, which maps OpenSSL's libcrypto (about 3.4 MB resident), and
``argparse`` is imported only by ``main``.  No layer imports
``dataclasses``, which would load ``inspect``, ``ast``, ``dis``,
``tokenize``, ``linecache`` and ``copy`` into every command.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from .exact import FinVec
from .families import RegularFamily, schreier

if TYPE_CHECKING:
    from .decomp import SeedSpace
    from .tsirelson import TsirelsonSpec


def _frac(s) -> Fraction:
    """A config rational: a string such as '1/2', a number, or a pair
    [numerator, denominator] of integers."""
    if not isinstance(s, list):
        return Fraction(s)
    if len(s) != 2 or not all(type(v) is int for v in s):
        raise ValueError(f"not a [numerator, denominator] pair: {s!r}")
    return Fraction(*s)


def parse_rational(flag: str, text: str) -> Fraction:
    """The value of a rational option such as ``--c 1/2``; a value that
    does not parse raises a ValueError naming the flag and the text."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{flag} takes a rational such as 1/2, "
                         f"not {text!r}") from None


def parse_family(text: str) -> RegularFamily:
    """Family descriptors like 'schreier:1' or 'schreier:w^1*2+3'."""
    kind, _, arg = text.partition(":")
    if kind != "schreier":
        raise ValueError(f"unknown family {text!r}")
    arg = arg or "1"
    if arg.isdigit():
        return schreier(int(arg))
    cnf = []
    try:
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
    except ValueError:
        raise ValueError(f"unknown family {text!r}") from None
    return schreier(tuple(cnf))


def parse_vector(text: str, universe: str = "nat") -> FinVec:
    """Vectors like '3:1,4:1,5:-1/2'.  Raises ValueError on an entry that
    is not an i:v pair or on a coordinate given twice."""
    entries = {}
    text = text.strip()
    if text:
        for part in text.split(","):
            i, _, v = part.partition(":")
            try:
                i, v = int(i), Fraction(v)
            except (ValueError, ZeroDivisionError):
                raise ValueError("vector entries are i:v pairs, not "
                                 f"{part!r}") from None
            if i in entries:
                raise ValueError(f"coordinate {i} given twice")
            entries[i] = v
    return FinVec(universe, entries)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), indent=None)


def _sha256_hex(data: bytes) -> str:
    """The SHA-256 hex digest of ``data``, from CPython's built-in module
    (``_sha2`` from 3.12, ``_sha256`` before), as ``random`` loads
    ``_sha512``; ``hashlib`` only where neither exists, since it maps
    OpenSSL's libcrypto to hash a few KB of JSON."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(data).hexdigest()


def _encode(obj) -> bytes:
    return (canonical_json(obj) + "\n").encode()


def _write(path: Path, obj) -> str:
    data = _encode(obj)
    path.write_bytes(data)
    return _sha256_hex(data)


# ---------------------------------------------------------------------------
# config and build
# ---------------------------------------------------------------------------

def _upper_target(cfg: dict) -> tuple[TsirelsonSpec, Fraction]:
    """The upper-estimates suite's space V, from ``upper_family`` and
    ``upper_c``, and its constant C, from ``upper_C``."""
    from .tsirelson import TsirelsonSpec
    return (TsirelsonSpec(parse_family(cfg.get("upper_family", "schreier:1")),
                          _frac(cfg.get("upper_c", "1/2"))),
            _frac(cfg.get("upper_C", 4)))


def load_config(path: str) -> dict:
    """The config at ``path`` if it parses, see ``check_config``; a file
    that cannot be read, is not JSON or holds no JSON object ends in one
    ``config rejected`` line naming the file."""
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        problem = f"cannot be read ({exc.strerror or exc})"
    except ValueError as exc:
        problem = f"is not JSON ({exc})"
    else:
        if isinstance(cfg, dict):
            return check_config(cfg)
        problem = "is not a JSON object"
    raise SystemExit(f"config rejected: {path} {problem}")


def _positive_int(value) -> bool:
    try:
        return int(value) >= 1
    except (ValueError, TypeError, OverflowError):
        return False


def _is_rational(value) -> bool:
    try:
        _frac(value)
    except (ValueError, TypeError, ZeroDivisionError, OverflowError):
        return False
    return True


def _is_vector(value) -> bool:
    """The entries of a ``FinVec`` as JSON: [i, numerator, denominator]
    integer triples with nonzero denominators."""
    return isinstance(value, list) and all(
        isinstance(e, list) and len(e) == 3
        and all(type(v) is int for v in e) and e[2] != 0 for e in value)


def _is_str(value) -> bool:
    return isinstance(value, str)


# the shape of each optional config key and seed key, as (test, shape);
# the rationals among them are checked in ``check_config``
_SHAPES = {
    "seed.name": (_is_str, "be a string"),
    "seed.family": (_is_str, "be a string such as 'schreier:1'"),
    "seed.blocks": (_positive_int, "be a positive integer"),
    "seed.block_dims": (lambda v: isinstance(v, list) and bool(v)
                        and all(map(_positive_int, v)),
                        "be a nonempty list of positive integers"),
    "seed.norming": (lambda v: isinstance(v, list) and all(map(_is_vector, v)),
                     "be a list of vectors, each a list of [i, numerator, "
                     "denominator] integer triples"),
    "eps_seq": (lambda v: isinstance(v, list),
                "be a list of rationals such as 1/2"),
    "upper_family": (_is_str, "be a string such as 'schreier:1'"),
}


def check_config(cfg: dict) -> dict:
    """``cfg`` if it parses, else one ``config rejected`` line naming each
    key that is wrong and the shape it expects.  The rules on c, eps and
    eps_seq are ``SeedSpace``'s, and ``realize_seed`` reports them.  The
    keys only ``verify`` reads, those of ``_upper_target``, are read here
    too, so that a build never records a config its verify cannot read;
    theta, which ``verify`` derives from the build, is refused, not
    ignored, and so are the caps ``stage_caps`` and ``size_cap`` (no build
    is cut), a seed's ``unconditional`` unless false, the value older
    configs carry, since no build reads it, and a ``stage_bound`` above the
    full stage, which builds nothing more.  ``verify`` and ``augment`` check
    the config a build recorded as well: its manifest is not hash-checked,
    though the dumps it rebuilds are (``_rebuild``)."""
    errors = []
    seed = cfg.get("seed", {})
    if not isinstance(seed, dict):
        raise SystemExit("config rejected: seed must be a JSON object")
    if seed.get("kind") not in ("tsirelson", "explicit"):
        errors.append("seed.kind must be 'tsirelson' or 'explicit'")
    if seed.get("unconditional", False) is not False:
        errors.append("seed.unconditional can only be false: D is built the "
                      "same way for every seed")
    if seed.get("kind") == "explicit":
        errors += [f"seed.{key} is required for an explicit seed"
                   for key in ("name", "block_dims", "norming")
                   if key not in seed]
    if not _positive_int(cfg.get("stage_bound")):
        errors.append("stage_bound must be a positive integer")
    for key, (test, shape) in _SHAPES.items():
        where, _, name = key.rpartition(".")
        obj = seed if where else cfg
        if name in obj and not test(obj[name]):
            errors.append(f"{key} must {shape}")
    values = [("seed.c", seed.get("c", 0)), ("eps", cfg.get("eps", 0))]
    if isinstance(cfg.get("eps_seq"), list):
        values += [("eps_seq", e) for e in cfg["eps_seq"]]
    values += [(k, cfg[k]) for k in ("upper_c", "upper_C") if k in cfg]
    errors += [f"{key} takes a rational such as 1/2, not {value!r}"
               for key, value in values if not _is_rational(value)]
    if "theta" in cfg:
        errors.append("theta is derived from the build, not set in the config")
    errors += [f"{key} is refused: no build is cut"
               for key in ("stage_caps", "size_cap") if key in cfg]
    if not errors:
        # Gamma stops growing at the full stage N(N+1)/2, the number of
        # block intervals of N blocks: a larger bound cannot change a build
        n = int(seed.get("blocks", 3) if seed["kind"] == "tsirelson"
                else len(seed["block_dims"]))
        bound, full = int(cfg["stage_bound"]), n * (n + 1) // 2
        if bound > full:
            errors.append(f"stage_bound {bound} is above the full stage "
                          f"{full} of {n} blocks")
        try:
            _upper_target(cfg)
        except ValueError as exc:
            errors.append(f"upper_family, upper_c: {exc}")
    if errors:
        raise SystemExit("config rejected: " + "; ".join(errors))
    return cfg


def realize_seed(cfg: dict) -> SeedSpace:
    """The configured seed, or one ``seed rejected`` line when its
    construction refuses it (an unknown family, a bad eps_seq, a cap hit)."""
    from .tsirelson import CapExceeded
    from .decomp import SeedSpace, tsirelson_seed
    s = cfg["seed"]
    c = _frac(s.get("c", "1/16"))
    eps = _frac(cfg["eps"]) if "eps" in cfg else None
    eps_seq = [_frac(e) for e in cfg["eps_seq"]] if "eps_seq" in cfg else None
    try:
        if s["kind"] == "tsirelson":
            seed = tsirelson_seed(
                s.get("name", "tsirelson"),
                parse_family(s.get("family", "schreier:1")), c,
                int(s.get("blocks", 3)), eps=eps, eps_seq=eps_seq)
        else:
            uni = f"seed:{s['name']}"
            norming = [FinVec.from_json_obj({"universe": uni, "entries": e})
                       for e in s["norming"]]
            seed = SeedSpace(s["name"], s["block_dims"], norming, c, eps,
                             eps_seq=eps_seq)
        issues = seed.validate()
    except (ValueError, CapExceeded) as exc:
        raise SystemExit(f"seed rejected: {exc}") from None
    if issues:
        raise SystemExit("seed rejected:\n  " + "\n  ".join(issues))
    return seed


def realize_build(cfg: dict):
    """The seed, the norming set D and the embedding, each built whole;
    a D that reaches ``decomp.D_SIZE_CAP`` members ends in one ``build
    rejected`` line."""
    from .decomp import NormingSetCap, build_norming_set_D
    from .construction import build_embedding
    seed = realize_seed(cfg)
    try:
        D = build_norming_set_D(seed)
    except NormingSetCap as exc:
        raise SystemExit(f"build rejected: {exc}") from None
    eb = build_embedding(seed, D, int(cfg["stage_bound"]))
    return seed, D, eb


DUMPS = ("seed.json", "normingset.json", "stages.json", "coding.json")


def _dumps(seed: SeedSpace, D, eb) -> dict:
    """The four dumps of a build by file name, in the order of ``DUMPS``:
    ``build`` writes them, and ``verify`` and ``augment`` compare their
    rebuild's with the manifest."""
    return dict(zip(DUMPS, (
        seed.to_json_obj(),
        D.to_json_obj(),
        eb.bd.to_json_obj(),
        {
            str(g): {
                "tuple": [[r.numerator, r.denominator, j]
                          for r, j in inf.entries],
                "case": inf.case,
                "rank": inf.rank,
                "xi": eb.code_of.get(inf.xi) if inf.xi else None,
                "eta": eb.code_of.get(inf.eta) if inf.eta else None,
            }
            for g, inf in sorted(eb.info.items())
        })))


def _load_manifest(build: str) -> dict:
    """The build's manifest, after checking every dump against its hash.
    A directory holding an augmentation is refused in one ``not a build``
    line.  A manifest that is not a JSON object holding the build's config
    and an object of hashes, a dump of ``DUMPS`` with no hash, a dump name
    that is not a plain file name (so no dump is read outside the build),
    or a dump that is missing or differs from its hash, ends in one
    ``corrupt dump`` line."""
    manifest_path = Path(build) / "manifest.json"
    if not manifest_path.exists():
        raise SystemExit(f"no manifest in {build}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except ValueError as exc:
        raise SystemExit(
            f"corrupt dump: manifest.json is not JSON ({exc})") from None
    if isinstance(manifest, dict) and (
            manifest.get("schema") == "bdspace-augment-v1"):
        raise SystemExit(f"not a build: {build} holds an augmentation")
    if not isinstance(manifest, dict) or not isinstance(
            manifest.get("config"), dict):
        raise SystemExit("corrupt dump: manifest.json is not a JSON object "
                         "with a config object")
    hashes = manifest.get("hashes", {})
    if not isinstance(hashes, dict):
        raise SystemExit("corrupt dump: manifest.json hashes is not a JSON "
                         "object")
    for name in DUMPS:
        if name not in hashes:
            raise SystemExit(f"corrupt dump: manifest.json has no hash for "
                             f"{name}")
    for name, h in hashes.items():
        if name in ("", ".", "..") or Path(name).name != name:
            raise SystemExit(
                f"corrupt dump: {name} is not a file name in the build")
        try:
            data = (Path(build) / name).read_bytes()
        except FileNotFoundError:
            raise SystemExit(f"corrupt dump: {name} missing") from None
        if _sha256_hex(data) != h:
            raise SystemExit(f"corrupt dump: {name} hash mismatch")
    return manifest


def _rebuild(build: str):
    """The recorded config, its rebuilt seed and embedding, after
    ``_load_manifest``.  A rebuild whose dumps differ from the manifest's
    hashes, from a config edited there or a change in the code, ends in
    one ``build drift`` line before any suite runs."""
    manifest = _load_manifest(build)
    cfg = check_config(manifest["config"])
    seed, D, eb = realize_build(cfg)
    hashes = manifest.get("hashes", {})
    for name, obj in _dumps(seed, D, eb).items():
        if _sha256_hex(_encode(obj)) != hashes.get(name):
            raise SystemExit(f"build drift: {name} differs from its rebuild")
    return cfg, seed, eb


def cmd_build(args) -> int:
    cfg = load_config(args.config)
    seed, D, eb = realize_build(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # a report that verify wrote to out judged an earlier build
    (out / "report.json").unlink(missing_ok=True)
    hashes = {name: _write(out / name, obj)
              for name, obj in _dumps(seed, D, eb).items()}
    manifest = {
        "schema": "bdspace-build-v1",
        "config": cfg,
        "seed_hash": hashes["seed.json"],
        "stage_cardinalities": {str(n): len(v)
                                for n, v in sorted(eb.bd.stages.items())},
        "norming_set_size": len(D.members),
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
    from .tsirelson import TsirelsonSpec
    from .bdcore import BuildError, Verdict
    from .augmentation import (AugmentedBuild, certify_lower_estimate,
                               verify_augmentation)
    try:
        held = json.loads((Path(args.out) / "manifest.json").read_text())
    except (OSError, ValueError):
        held = None
    if isinstance(held, dict) and held.get("schema") == "bdspace-build-v1":
        raise SystemExit(f"augment rejected: --out {args.out} holds a build; "
                         "its dumps would be overwritten")
    try:
        carriers = ([int(r) for r in args.carriers.split(",")]
                    if args.carriers else [])
    except ValueError:
        raise SystemExit("augment rejected: --carriers takes comma-separated "
                         f"integer ranks, not {args.carriers!r}") from None
    try:
        vspec = TsirelsonSpec(parse_family(args.v_family),
                              parse_rational("--v-c", args.v_c))
        c_aug = parse_rational("--c", args.c) if args.c else None
    except ValueError as exc:
        raise SystemExit(f"augment rejected: {exc}") from None
    cfg, seed, eb = _rebuild(args.build)
    c_aug = seed.c if c_aug is None else c_aug
    try:
        aug = AugmentedBuild(eb, vspec, c_aug)
        thetas = [aug.make_carrier(r) for r in carriers]
        cert = certify_lower_estimate(
            aug, [aug.carrier_block(t) for t in thetas]) if thetas else None
    except BuildError as exc:
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
        "carriers": carriers,
        "theta_cardinalities": {str(n): sum(1 for g in aug.bd.stage(n)
                                            if g in aug.theta)
                                for n in sorted(aug.bd.stages)},
        "dense_set_ledger": aug.dense_set_ledger(),
        "certificate": cert.to_json_obj() if cert else None,
        "verification_ok": rep.ok,
        "violations": [str(v) for v in rep.violations],
        "hashes": hashes,
    }
    _write(out / "manifest.json", manifest)
    status = cert.status if cert else "NO-CERT"
    print(f"augmentation written to {out} (certificate: {status}, "
          f"verification {'ok' if rep.ok else 'FAILED'})")
    return 1 if not rep.ok or status is Verdict.FAIL else 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _suite_runners(eb, cfg):
    """Suite name -> a call returning the suite's reports on the build
    ``eb`` (its seed, norming set D and BD build).  Each report carries its
    own verdict; nothing here judges one.  theta* and M are the build's
    (``bdcore.decomposition_constant``); with no M, the suites that use it
    are INCONCLUSIVE."""
    from . import bdcore
    from .decomp import check_subsequential_upper, verify_norming_set
    from .construction import verify_coding, verify_cuts, verify_embedding
    bd, D = eb.bd, eb.D
    theta, M = bdcore.decomposition_constant(bd)
    upper, upper_C = _upper_target(cfg)

    def given_m(name, check):
        return lambda: [check() if M is not None else bdcore.Report(
            name, unsettled=bdcore.Verdict.INCONCLUSIVE,
            reason=f"theta* = {theta} >= 1/2: no a priori M")]

    return {
        "schema": lambda: [bdcore.validate_schema(bd)],
        "weight-split": lambda: [bdcore.condition_weight_split(bd, theta)],
        "projection-norms": given_m("projection-norms", lambda:
                                    bdcore.compute_constants(bd, theta)),
        "isometry": lambda: [bdcore.verify_extension_isometry(bd, m)
                             for m in sorted(bd.stages)],
        "compat": lambda: [bdcore.verify_extension_compatibility(bd)],
        "analysis": lambda: [bdcore.verify_analysis(bd)],
        "idempotence": lambda: [bdcore.verify_projection_idempotence(bd)],
        "dual-norms": given_m("dual-norm-band", lambda:
                              bdcore.verify_dual_norms(bd, M)),
        "coding": lambda: [verify_coding(eb)],
        "norming-set": lambda: [verify_norming_set(D, eb.nblocks_covered())],
        "embedding": lambda: [verify_embedding(eb)],
        "cuts": lambda: [verify_cuts(eb)],
        "upper-estimates": lambda: [check_subsequential_upper(
            [m.vec for m in D.members], eb.seed, upper, upper_C).report()],
    }


def _verdict_line(r: dict) -> str:
    """A report.json entry as one line, ending in a violation or reason."""
    note = r["violations"][0] if r["violations"] else r["reason"]
    return (f"[{r['verdict']}] {r['suite']}: {r['name']}"
            + (f" :: {note}" if note else ""))


def cmd_verify(args) -> int:
    from .bdcore import Verdict
    cfg, _, eb = _rebuild(args.build)
    runners = _suite_runners(eb, cfg)
    if args.suite and args.suite not in runners:
        raise SystemExit(f"unknown suite {args.suite!r}; have {sorted(runners)}")
    names = [args.suite] if args.suite else sorted(runners)
    out_reports = []
    for n in names:
        for rep in runners[n]():
            out_reports.append(rep.to_json_obj() | {"suite": n})
            print(_verdict_line(out_reports[-1]))
    failed = any(r["verdict"] == Verdict.FAIL for r in out_reports)
    report = {"schema": "bdspace-report-v1", "build": str(args.build),
              "reports": out_reports, "failed": failed}
    _write(Path(args.build) / "report.json", report)
    return 1 if failed else 0


def cmd_report(args) -> int:
    from .bdcore import Verdict
    path = Path(args.build) / "report.json"
    if not path.exists():
        raise SystemExit(f"no report.json in {args.build}; run verify first")
    try:
        rep = json.loads(path.read_text())
    except ValueError as exc:
        raise SystemExit(
            f"corrupt report: report.json is not JSON ({exc})") from None
    reports = rep.get("reports") if isinstance(rep, dict) else None
    if not (isinstance(reports, list) and "failed" in rep and all(
            isinstance(r, dict) and {"suite", "name", "violations"} <= r.keys()
            for r in reports)):
        raise SystemExit("corrupt report: report.json is not a JSON object "
                         "with a failed flag and a list of reports")
    if not all("verdict" in r and "reason" in r for r in reports):
        raise SystemExit(f"{path} has no verdicts (written before they were "
                         "recorded); run verify again")
    for r in reports:
        print(_verdict_line(r))
    verdicts = [r["verdict"] for r in reports]
    unsettled = ", ".join(
        f"{verdicts.count(v.value)} {v}"
        for v in (Verdict.INCONCLUSIVE, Verdict.AT_CAP)
        if v.value in verdicts)
    print("overall:", ("FAIL" if rep["failed"] else "PASS")
          + (f" with {unsettled}" if unsettled else ""))
    return 1 if rep["failed"] else 0


def cmd_dump(args) -> int:
    path = Path(args.build) / f"{args.what}.json"
    if not path.exists():
        raise SystemExit(f"{path} not found")
    try:
        obj = json.loads(path.read_text())
    except ValueError as exc:
        raise SystemExit(
            f"corrupt dump: {path.name} is not JSON ({exc})") from None
    print(json.dumps(obj, indent=2, sort_keys=True))
    return 0


# ---------------------------------------------------------------------------
# ad-hoc queries
# ---------------------------------------------------------------------------

def cmd_norm(args) -> int:
    from .tsirelson import TsirelsonSpec, tsirelson_norm
    try:
        spec = TsirelsonSpec(parse_family(args.family),
                             parse_rational("--c", args.c))
        norm = tsirelson_norm(parse_vector(args.vector), spec)
    except ValueError as exc:
        raise SystemExit(f"norm rejected: {exc}") from None
    print(norm)
    return 0


def cmd_decompose(args) -> int:
    from .decomp import optimal_c_decomposition
    norm = (lambda v: v.l1()) if args.norm == "l1" else (lambda v: v.linf())
    try:
        dec = optimal_c_decomposition(parse_vector(args.vector, universe="l1"),
                                      parse_rational("--c", args.c), norm)
    except ValueError as exc:
        raise SystemExit(f"decompose rejected: {exc}") from None
    blocks = [{str(i): str(v) for i, v in b.items()} for b in dec.blocks()]
    print(json.dumps({"breakpoints": list(dec.breakpoints), "blocks": blocks}))
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    import argparse
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
    p.add_argument("vector")
    p.set_defaults(fn=cmd_norm)

    p = sub.add_parser("decompose", help="optimal greedy c-decomposition")
    p.add_argument("--c", default="1/2")
    p.add_argument("--norm", default="l1", choices=["l1", "linf"])
    p.add_argument("vector")
    p.set_defaults(fn=cmd_decompose)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
