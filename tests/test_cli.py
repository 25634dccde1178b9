import ast
import functools
import hashlib
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from bdspace import cli, construction, decomp
from bdspace.bdcore import Report
from bdspace.cli import main, parse_family, parse_vector
from bdspace.families import is_member

REPO = Path(__file__).resolve().parents[1]
# the suite names the benchmark's report gate requires, read from its
# source without importing it
SUITES = next(ast.literal_eval(node.value) for node in ast.parse(
    (REPO / "bench" / "run.py").read_text()).body
    if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "SUITES")
VERDICTS = {"PASS", "FAIL", "INCONCLUSIVE", "AT-CAP"}


CONFIG = {
    "schema": "bdspace-config-v1",
    "seed": {"kind": "tsirelson", "name": "cli", "family": "schreier:1",
             "c": "1/16", "blocks": 3, "unconditional": False},
    "eps": "1/32",
    "stage_bound": 6,
}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    out = root / "build"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
    return root, cfg, out


def test_family_parser():
    assert parse_family("schreier:1") == parse_family("schreier:1")
    f = parse_family("schreier:w^1*1+2")  # omega + 2
    assert is_member({2, 3}, f)


def test_vector_parser():
    v = parse_vector("3:1,4:-1/2")
    assert dict(v.items()) == {3: Fraction(1), 4: Fraction(-1, 2)}


def test_build_writes_artifacts(built):
    _, _, out = built
    for name in ("manifest.json", "stages.json", "seed.json",
                 "normingset.json", "coding.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    # every stage up to the bound is populated
    for n in range(1, CONFIG["stage_bound"] + 1):
        assert manifest["stage_cardinalities"][str(n)] > 0
    coding = json.loads((out / "coding.json").read_text())
    assert set(c["case"] for c in coding.values()) <= {"i", "ii", "iii", "iv"}


def test_build_determinism(built, tmp_path):
    root, cfg, out = built
    out2 = tmp_path / "again"
    assert main(["build", "--config", str(cfg), "--out", str(out2)]) == 0
    for name in ("manifest.json", "stages.json", "seed.json",
                 "normingset.json", "coding.json"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def test_manifest_hashes_are_sha256_of_the_dumps(built):
    # the CLI hashes without hashlib; its digests must be hashlib's
    _, _, out = built
    hashes = json.loads((out / "manifest.json").read_text())["hashes"]
    assert sorted(hashes) == ["coding.json", "normingset.json", "seed.json",
                              "stages.json"]
    for name, h in hashes.items():
        assert h == hashlib.sha256((out / name).read_bytes()).hexdigest()


def test_config_rejected_on_bad_eps(tmp_path):
    bad = dict(CONFIG, eps="1/8")  # eps >= c
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(SystemExit):
        main(["build", "--config", str(p), "--out", str(tmp_path / "o")])


def test_config_rejected_on_eps_seq_sum(tmp_path):
    bad = dict(CONFIG)
    bad["eps_seq"] = ["1/100", "1/100", "1/100"]  # sum >= eps/8
    p = tmp_path / "bad2.json"
    p.write_text(json.dumps(bad))
    with pytest.raises(SystemExit):
        main(["build", "--config", str(p), "--out", str(tmp_path / "o")])


EXPLICIT_SEED = {"kind": "explicit", "name": "linf", "block_dims": [1] * 3,
                 "c": "1/16", "norming": [[[i, 1, 1]] for i in (1, 2, 3)]}


@pytest.mark.parametrize("change, why", [
    ({"seed": EXPLICIT_SEED, "eps_seq": ["1/600", "1/2000"]},
     "eps_seq length must match block count"),
    ({"eps_seq": ["1/600", "1/2000"]}, "eps_seq length must match block count"),
    ({"seed": dict(CONFIG["seed"], family="schreier:x")},
     "unknown family 'schreier:x'"),
    ({"seed": dict(EXPLICIT_SEED, block_dims=[2, 1]), "stage_bound": 3},
     "block 1 has dimension 2: the dense sets are built for dimension 1 "
     "only$"),
    ({"seed": dict(EXPLICIT_SEED, block_dims=[1, 1],
                   norming=[[[i, 1, 1]] for i in (0, 1, 2)]),
      "stage_bound": 3}, "generator 0 has coordinate 0 outside 1..2$"),
    ({"seed": dict(EXPLICIT_SEED, block_dims=[1, 1],
                   norming=[[[i, 1, 1]] for i in (1, 2, 3)]),
      "stage_bound": 3}, "generator 2 has coordinate 3 outside 1..2$")],
    ids=["explicit-eps-seq-length", "tsirelson-eps-seq-length", "family",
         "block-dimension", "coordinate-0", "coordinate-past-last"])
def test_config_rejected_by_seed_rules(tmp_path, change, why):
    # the seed construction's own rules end the build in one line and
    # nothing is written; the bound of 3 is the full stage of 2 blocks
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(CONFIG, **change)))
    with pytest.raises(SystemExit, match=f"^seed rejected: {why}"):
        main(["build", "--config", str(p), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def test_build_rejected_at_norming_set_cap(tmp_path, monkeypatch):
    # D is built whole or not at all: a cap hit ends the build in one line
    # and nothing is written
    monkeypatch.setattr(decomp, "D_SIZE_CAP", 5)
    p = tmp_path / "config.json"
    p.write_text(json.dumps(CONFIG))
    with pytest.raises(SystemExit,
                       match="^build rejected: norming set cap 5 hit$"):
        main(["build", "--config", str(p), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def _config_keys() -> set[str]:
    """Every key cli.py reads from a config or a seed object: the string
    constants of ``.get(...)`` calls, subscripts and ``in`` tests, of
    tuples a loop runs over, and the keys of ``_SHAPES``."""
    keys = set()

    def strings(node):
        return [n.value for n in ast.walk(node)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)]
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"):
            keys.update(strings(node.args[0]))
        elif isinstance(node, ast.Subscript):
            keys.update(strings(node.slice))
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.In):
            keys.update(strings(node.left))
        elif isinstance(node, (ast.For, ast.comprehension)) and isinstance(
                node.iter, ast.Tuple):
            keys.update(strings(node.iter))
    keys.update(k.rpartition(".")[2] for k in cli._SHAPES)
    return {k for k in keys if k.isidentifier()}


def test_config_of_any_shape_ends_in_one_line():
    # every key read from a config or a seed, given null, a list, an
    # object, a string or a number, at either level and for either seed
    # kind, parses and builds its seed or ends in one rejected line; the
    # keys are read from cli.py's source, so a new key cannot skip this
    keys = _config_keys()
    assert {"seed", "stage_bound", "eps_seq", "upper_family", "theta",
            "stage_caps", "size_cap", "kind", "family", "blocks", "norming",
            "block_dims", "name", "c"} <= keys
    explicit = dict(CONFIG, seed=EXPLICIT_SEED)
    for base, key, value in itertools.product(
            (CONFIG, explicit), sorted(keys),
            (None, [], [1], {}, {"a": 1}, "abc", 2)):
        for cfg in (dict(base, **{key: value}),
                    dict(base, seed=dict(base["seed"], **{key: value}))):
            try:
                cli.realize_seed(cli.check_config(cfg))
            except SystemExit as exc:
                assert re.match(r"(config|seed) rejected: [^\n]+$",
                                str(exc)), (cfg, exc)


def test_seed_rejected_at_member_cap(tmp_path, monkeypatch):
    # 31 blocks at c = 1/16 have a tree l1 ceiling of 1, so the seed
    # enumerates every tree; at a cap of 100 members (past the 62 leaves)
    # that ends in one line, not a traceback
    monkeypatch.setattr(decomp, "build_dual_norming_set", functools.partial(
        decomp.build_dual_norming_set, member_cap=100))
    p = tmp_path / "big.json"
    p.write_text(json.dumps(dict(CONFIG, seed=dict(CONFIG["seed"],
                                                   blocks=31))))
    with pytest.raises(SystemExit, match="^seed rejected: dual norming set "
                       "cap 100 hit$"):
        main(["build", "--config", str(p), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("change, why", [
    ({"upper_C": "abc"}, "upper_C takes a rational such as 1/2, not 'abc'"),
    ({"upper_family": "schreier:x"},
     "upper_family, upper_c: unknown family 'schreier:x'"),
    ({"upper_c": "2"}, "upper_family, upper_c: weight must satisfy 0 < c < 1"),
    ({"theta": "1/8"}, "theta is derived from the build, not set in the config"),
    ({"stage_bound": "abc"}, "stage_bound must be a positive integer"),
    ({"stage_bound": 7}, "stage_bound 7 is above the full stage 6 of 3 "
     "blocks"),
    ({"seed": EXPLICIT_SEED, "stage_bound": 7},
     "stage_bound 7 is above the full stage 6 of 3 blocks"),
    ({"stage_caps": {"5": 1, "6": 1}}, "stage_caps is refused: no build is cut"),
    ({"stage_caps": 3}, "stage_caps is refused: no build is cut"),
    ({"size_cap": 20_000}, "size_cap is refused: no build is cut"),
    ({"seed": dict(CONFIG["seed"], unconditional=True)},
     "seed.unconditional can only be false: D is built the same way for "
     "every seed")],
    ids=["upper_C", "upper_family", "upper_c", "theta", "stage_bound",
         "stage_bound-tsirelson-full", "stage_bound-explicit-full",
         "stage_caps-dict", "stage_caps", "size_cap", "unconditional"])
def test_config_rejected_in_one_line(tmp_path, change, why):
    # keys that only verify reads are parsed when the build starts, so a
    # build never records a config whose verify would end in a traceback;
    # the caps stage_caps and size_cap, which no build reads since none is
    # cut, and theta, which verify derives from the build, are refused
    # rather than ignored
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(dict(CONFIG, **change)))
    with pytest.raises(SystemExit, match=f"^config rejected: {why}$"):
        main(["build", "--config", str(p), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text, why", [
    (None, r"cannot be read \(No such file or directory\)"),
    ('{"seed": ', r"is not JSON \(Expecting value: .+\)"),
    ("[1, 2]", "is not a JSON object")],
    ids=["missing", "malformed", "not-an-object"])
def test_config_file_rejected_in_one_line(tmp_path, text, why):
    # a config file that cannot be read as a JSON object ends the build in
    # one line naming the file, and nothing is written
    p = tmp_path / "config.json"
    if text is not None:
        p.write_text(text)
    with pytest.raises(SystemExit,
                       match=f"^config rejected: {re.escape(str(p))} {why}$"):
        main(["build", "--config", str(p), "--out", str(tmp_path / "o")])
    assert not (tmp_path / "o").exists()


def test_unconditional_key_absent_builds_as_false(built, tmp_path):
    # D is built one way for every seed, so leaving the key out changes no
    # dump; seed.json has no such field
    _, _, out = built
    seed = {k: v for k, v in CONFIG["seed"].items() if k != "unconditional"}
    p = tmp_path / "nokey.json"
    p.write_text(json.dumps(dict(CONFIG, seed=seed)))
    assert main(["build", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    for name in ("seed.json", "stages.json", "normingset.json", "coding.json"):
        assert (tmp_path / "o" / name).read_bytes() == (out / name).read_bytes()
    assert "unconditional" not in json.loads((out / "seed.json").read_text())


def test_tsirelson_seed_reads_eps_seq(tmp_path):
    seq = ["1/600", "1/2000", "1/8000"]
    p = tmp_path / "seq.json"
    p.write_text(json.dumps(dict(CONFIG, eps_seq=seq)))
    assert main(["build", "--config", str(p), "--out", str(tmp_path / "o")]) == 0
    seed = json.loads((tmp_path / "o" / "seed.json").read_text())
    assert [f"{n}/{d}" for n, d in seed["eps_seq"]] == seq


def test_config_ignores_unread_keys(tmp_path):
    # "samples" sized a sampled embedding suite that no longer exists; a
    # config that still sets it loads like any key the driver does not read
    old = dict(CONFIG, samples=10)
    p = tmp_path / "old.json"
    p.write_text(json.dumps(old))
    assert cli.load_config(str(p)) == old


def test_suite_runners_match_benchmark_gate():
    # verify runs exactly the suites the benchmark's report gate requires
    runners = cli._suite_runners(cli.realize_build(CONFIG)[2], CONFIG)
    assert sorted(runners) == sorted(SUITES)


def test_verify_all_suites(built, capsys):
    _, _, out = built
    rc = main(["verify", "--build", str(out)])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "[FAIL]" not in captured
    assert (out / "report.json").exists()
    rc = main(["report", "--build", str(out)])
    assert rc == 0


def test_verdict_lines(built, capsys):
    # a finite stage does not settle compactness of the cuts: its verdict
    # is INCONCLUSIVE, and exits 0; the upper estimates are checked on every
    # cut sequence and PASS
    _, _, out = built
    assert main(["verify", "--build", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("[INCONCLUSIVE] ")] == [
        ln for ln in lines if " cuts: " in ln]
    assert all(ln.startswith("[PASS] ") for ln in lines if " cuts: " not in ln)
    assert "[PASS] upper-estimates: upper-estimates" in lines
    assert all(" :: " in ln for ln in lines if not ln.startswith("[PASS] "))
    reports = json.loads((out / "report.json").read_text())["reports"]
    assert {r["suite"] for r in reports} == set(SUITES)
    assert {r["verdict"] for r in reports} <= VERDICTS
    assert all(r["ok"] == (r["verdict"] != "FAIL") for r in reports)
    assert main(["report", "--build", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == lines + [
        "overall: PASS with 1 INCONCLUSIVE"]


def test_verify_fail_exits_nonzero(built, tmp_path, monkeypatch, capsys):
    _, _, out = built
    copy = tmp_path / "build"
    shutil.copytree(out, copy)
    monkeypatch.setattr(construction, "verify_coding",
                        lambda eb: Report("coding", violations=["injected"]))
    assert main(["verify", "--build", str(copy), "--suite", "coding"]) == 1
    assert "[FAIL] coding: coding :: injected" in capsys.readouterr().out
    report = json.loads((copy / "report.json").read_text())
    assert report["failed"]
    assert report["reports"][0]["verdict"] == "FAIL"
    assert main(["report", "--build", str(copy)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "overall: FAIL"


def test_rebuild_removes_stale_report(built, tmp_path, capsys):
    # a report that verify wrote to a directory judged the build there; a
    # build of another config into that directory removes it, so report
    # asks for verify instead of passing the new build on the old verdicts
    _, _, out = built
    again = tmp_path / "build"
    shutil.copytree(out, again)
    assert main(["verify", "--build", str(again), "--suite", "schema"]) == 0
    cfg = tmp_path / "smaller.json"
    cfg.write_text(json.dumps(CONFIG | {"stage_bound": 4}))
    assert main(["build", "--config", str(cfg), "--out", str(again)]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match=f"^no report.json in "
                       f"{re.escape(str(again))}; run verify first$"):
        main(["report", "--build", str(again)])


def test_report_without_verdicts_asks_for_verify(tmp_path):
    # a report.json written before verdicts were recorded carries the same
    # schema tag but no verdict or reason fields
    old = {"schema": "bdspace-report-v1", "build": str(tmp_path),
           "failed": False, "reports": [{
               "suite": "coding", "name": "coding", "ok": True,
               "violations": [], "details": {}}]}
    (tmp_path / "report.json").write_text(json.dumps(old))
    with pytest.raises(SystemExit, match="run verify again"):
        main(["report", "--build", str(tmp_path)])


@pytest.mark.parametrize("text", ["[]", "{}", '{"reports": 3}',
                                  '{"reports": [1]}'],
                         ids=["list", "empty", "reports-not-a-list",
                              "report-not-an-object"])
def test_report_of_wrong_shape_rejected_in_one_line(tmp_path, text):
    (tmp_path / "report.json").write_text(text)
    with pytest.raises(SystemExit, match="^corrupt report: report.json is "
                                         "not a JSON object with a failed "
                                         "flag and a list of reports$"):
        main(["report", "--build", str(tmp_path)])


def test_dump_not_json_rejected_in_one_line(tmp_path):
    (tmp_path / "report.json").write_text("{")
    with pytest.raises(SystemExit, match=r"^corrupt dump: report.json is "
                                         r"not JSON \(.+\)$"):
        main(["dump", "--build", str(tmp_path), "--what", "report"])


def test_report_not_json_rejected_in_one_line(tmp_path):
    (tmp_path / "report.json").write_text("{")
    with pytest.raises(SystemExit, match=r"^corrupt report: report.json is "
                                         r"not JSON \(.+\)$"):
        main(["report", "--build", str(tmp_path)])


def test_trace_harness_loads(built, tmp_path):
    # the benchmark's tracer patches cli names by getattr; a traced verify
    # must still run and time every suite
    _, _, out = built
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "tracing.py"), str(spans),
         "verify", "--build", str(out)],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = json.loads(spans.read_text())["spans"]
    assert all(f"cli.suite.{n}" in names for n in SUITES)


def test_trace_harness_reaches_command_imports(tmp_path):
    # the commands import the layers inside their bodies, after the tracer
    # has wrapped them: a traced build still times the build once, and the
    # norming set and the embedding under it
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(REPO / "bench" / "tracing.py"), str(spans),
         "build", "--config", str(cfg), "--out", str(tmp_path / "build")],
        cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    names = json.loads(spans.read_text())["spans"]
    assert names["cli.realize_build"][0] == 1
    assert names["decomp.build_D"][0] == 1
    assert names["construction.build_embedding"][0] == 1


def test_verify_single_suite(built, capsys):
    _, _, out = built
    assert main(["verify", "--build", str(out), "--suite",
                 "projection-norms"]) == 0
    assert "projection-norms" in capsys.readouterr().out


def test_verify_detects_tampering(built, tmp_path):
    root, cfg, out = built
    out3 = tmp_path / "tampered"
    assert main(["build", "--config", str(cfg), "--out", str(out3)]) == 0
    stages = out3 / "stages.json"
    stages.write_text(stages.read_text().replace('"1"', '"1 "', 1))
    with pytest.raises(SystemExit, match="corrupt"):
        main(["verify", "--build", str(out3)])


@pytest.mark.parametrize("command", ["verify", "augment"])
def test_recorded_config_rejected_in_one_line(built, tmp_path, command):
    # the manifest is not hash-checked, so a config edited there by hand (or
    # recorded before a check existed) is checked as a build's config is
    _, _, out = built
    out3 = tmp_path / "edited"
    shutil.copytree(out, out3)
    manifest = json.loads((out3 / "manifest.json").read_text())
    manifest["config"]["theta"] = "1/2"
    (out3 / "manifest.json").write_text(json.dumps(manifest))
    extra = (["--suite", "projection-norms"] if command == "verify"
             else ["--out", str(tmp_path / "aug")])
    with pytest.raises(SystemExit,
                       match="^config rejected: theta is derived from the "
                             "build, not set in the config$"):
        main([command, "--build", str(out3)] + extra)


@pytest.mark.parametrize("command", ["verify", "augment"])
@pytest.mark.parametrize("fault, why", [
    ("malformed-manifest", r"manifest.json is not JSON \(.+\)"),
    ("manifest-not-an-object",
     "manifest.json is not a JSON object with a config object"),
    ("manifest-without-config",
     "manifest.json is not a JSON object with a config object"),
    ("hashes-not-an-object", "manifest.json hashes is not a JSON object"),
    ("missing-dump", "stages.json missing"),
    ("no-hashes", "manifest.json has no hash for seed.json"),
    ("dump-and-hash-removed", "manifest.json has no hash for coding.json")],
    ids=["malformed-manifest", "manifest-not-an-object",
         "manifest-without-config", "hashes-not-an-object", "missing-dump",
         "no-hashes", "dump-and-hash-removed"])
def test_broken_build_rejected_in_one_line(built, tmp_path, command, fault,
                                           why):
    _, _, out = built
    broken = tmp_path / "broken"
    shutil.copytree(out, broken)
    if fault == "malformed-manifest":
        (broken / "manifest.json").write_text('{"hashes": ')
    elif fault == "manifest-not-an-object":
        (broken / "manifest.json").write_text("[]")
    elif fault == "manifest-without-config":
        (broken / "manifest.json").write_text("{}")
    elif fault in ("hashes-not-an-object", "no-hashes",
                   "dump-and-hash-removed"):
        # without a hash for every dump, the rebuild would be judged
        # against nothing and end in "build drift"
        manifest = json.loads((broken / "manifest.json").read_text())
        if fault == "hashes-not-an-object":
            manifest["hashes"] = ["seed.json"]
        elif fault == "no-hashes":
            manifest["hashes"] = {}
        else:
            del manifest["hashes"]["coding.json"]
            (broken / "coding.json").unlink()
        (broken / "manifest.json").write_text(json.dumps(manifest))
    else:
        (broken / "stages.json").unlink()
    extra = (["--suite", "schema"] if command == "verify"
             else ["--out", str(tmp_path / "aug")])
    with pytest.raises(SystemExit, match=f"^corrupt dump: {why}$"):
        main([command, "--build", str(broken)] + extra)
    assert not (tmp_path / "aug").exists()


@pytest.mark.parametrize("command", ["verify", "augment"])
@pytest.mark.parametrize("name", ["../seed.json", "/seed.json", ".", "..", "",
                                  "sub/seed.json"],
                         ids=["parent-dir", "absolute", "dot", "dot-dot",
                              "empty", "subdir"])
def test_dump_name_outside_build_rejected(built, tmp_path, command, name):
    # a hash key naming a path is refused before anything is read, so an
    # edited manifest cannot make verify read outside the build
    _, _, out = built
    edited = tmp_path / "edited"
    shutil.copytree(out, edited)
    manifest = json.loads((edited / "manifest.json").read_text())
    manifest["hashes"][name] = manifest["hashes"]["seed.json"]
    (edited / "manifest.json").write_text(json.dumps(manifest))
    extra = (["--suite", "schema"] if command == "verify"
             else ["--out", str(tmp_path / "aug")])
    with pytest.raises(SystemExit, match=f"^corrupt dump: {re.escape(name)} "
                                         "is not a file name in the build$"):
        main([command, "--build", str(edited)] + extra)
    assert not (tmp_path / "aug").exists()


def test_augment_detects_tampering(built, tmp_path):
    root, cfg, out = built
    out3 = tmp_path / "tampered"
    assert main(["build", "--config", str(cfg), "--out", str(out3)]) == 0
    stages = out3 / "stages.json"
    stages.write_text(stages.read_text().replace('"1"', '"1 "', 1))
    with pytest.raises(SystemExit, match="corrupt dump"):
        main(["augment", "--build", str(out3), "--out", str(tmp_path / "a")])


def test_report_details_are_json(tmp_path):
    # the acceptance config: details are JSON, Fractions "p/q" strings
    cfg = {"schema": "bdspace-config-v1",
           "seed": {"kind": "tsirelson", "name": "acc",
                    "family": "schreier:1", "c": "1/16", "blocks": 4,
                    "unconditional": False},
           "eps": "1/32", "stage_bound": 8}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    out = tmp_path / "build"
    assert main(["build", "--config", str(p), "--out", str(out)]) == 0
    assert main(["verify", "--build", str(out)]) == 0
    text = (out / "report.json").read_text()
    assert "Fraction(" not in text
    reports = {r["name"]: r["details"]
               for r in json.loads(text)["reports"]}
    mcomp = reports["projection-norms"]["M_computed"]
    assert mcomp == "64553/32768"
    assert reports["projection-norms"]["prefix_norms"]["0,1"] == "0"
    jn = reports["dual-norm-band"]["||J_n||"]
    assert max(jn.values(), key=Fraction) == mcomp
    emb = reports["embedding-bounds"]
    assert emb == {"||phi||": "128/129", "lambda*": "128/129",
                   "witness": {"1": "-129/128"}}


def test_norm_command(capsys):
    assert main(["norm", "--family", "schreier:1", "--c", "1/2",
                 "3:1,4:1,5:1"]) == 0
    assert capsys.readouterr().out.strip() == "3/2"


def test_norm_empty_vector(capsys):
    assert main(["norm", "--family", "schreier:1", "--c", "1/2", " "]) == 0
    assert capsys.readouterr().out.strip() == "0"


@pytest.mark.parametrize("argv, why", [
    (["--c", "2", "1:1"], "weight must satisfy 0 < c < 1"),
    (["--c", "1/0", "1:1"], "--c takes a rational such as 1/2, not '1/0'$"),
    (["--c", "x", "1:1"], "--c takes a rational such as 1/2, not 'x'$"),
    (["--family", "schreier:x", "1:1"], "unknown family 'schreier:x'"),
    (["abc"], "vector entries are i:v pairs, not 'abc'"),
    (["0:1,2:1"], "coordinate 0 is not in N"),
    (["1:1,1:1"], "coordinate 1 given twice")],
    ids=["weight", "weight-zero-den", "weight-literal", "family", "entry",
         "coordinate-0", "duplicate"])
def test_norm_rejects_bad_input(argv, why):
    # each bad input ends the command with one line, not a traceback
    with pytest.raises(SystemExit, match=f"^norm rejected: {why}"):
        main(["norm", *argv])


@pytest.mark.parametrize("command", ["norm", "build"])
def test_family_past_frame_bound_rejected_at_once(tmp_path, command):
    # the Schreier automaton of omega^3 * 999999999 would open 125 *
    # 999999999 frames at 5: the family is refused in one line, before any
    # state is built
    fam = "schreier:w^3*999999999"
    if command == "norm":
        argv, n = ["norm", "--family", fam, "5:1,6:1,7:1"], 7
    else:
        p = tmp_path / "config.json"
        p.write_text(json.dumps(dict(CONFIG, seed=dict(CONFIG["seed"],
                                                       family=fam))))
        argv = ["build", "--config", str(p), "--out", str(tmp_path / "o")]
        n = CONFIG["seed"]["blocks"]
    line = {"norm": "norm", "build": "seed"}[command]
    start = time.perf_counter()
    with pytest.raises(SystemExit, match=(
            rf"^{line} rejected: {re.escape(fam)} on \[1, {n}\] needs more "
            r"than 1024 automaton frames$")):
        main(argv)
    assert time.perf_counter() - start < 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, why", [
    (["abc"], "vector entries are i:v pairs, not 'abc'"),
    (["1:1,1:1"], "coordinate 1 given twice"),
    (["--c", "x", "1:1"], "--c takes a rational such as 1/2, not 'x'$"),
    (["--c", "1/0", "1:1"], "--c takes a rational such as 1/2, not '1/0'$"),
    (["--c", "2", "1:1"], "weight must satisfy 0 < c < 1")],
    ids=["entry", "duplicate", "weight-literal", "weight-zero-den", "weight"])
def test_decompose_rejects_bad_input(argv, why):
    with pytest.raises(SystemExit, match=f"^decompose rejected: {why}"):
        main(["decompose", *argv])


def test_decompose_command(capsys):
    assert main(["decompose", "--c", "1/2", "1:3/10,2:3/10,3:4/5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"] == [{"1": "3/10"}, {"2": "3/10"}, {"3": "4/5"}]


def test_decompose_empty(capsys):
    assert main(["decompose", "--c", "1/2", " "]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["blocks"] == []


def test_dump_command(built, capsys):
    _, _, out = built
    assert main(["dump", "--build", str(out), "--what", "manifest"]) == 0
    assert "stage_cardinalities" in capsys.readouterr().out


def test_dump_coding(built, capsys):
    _, _, out = built
    assert main(["dump", "--build", str(out), "--what", "coding"]) == 0
    dumped = json.loads(capsys.readouterr().out)
    assert dumped == json.loads((out / "coding.json").read_text())


def test_augment_command(built, tmp_path, capsys):
    _, _, out = built
    aout = tmp_path / "aug"
    rc = main(["augment", "--build", str(out), "--out", str(aout),
               "--v-family", "schreier:1", "--v-c", "1/2",
               "--carriers", "2,6,11"])
    assert rc == 0
    manifest = json.loads((aout / "manifest.json").read_text())
    assert manifest["verification_ok"]
    assert manifest["certificate"]["status"] == "PASS"


@pytest.mark.parametrize("carriers, why", [
    ("1,5,9", "no earlier coordinates to build from"),
    ("2,3", "blocks violate the separation condition"),
    ("abc", "--carriers takes comma-separated integer ranks"),
    ("2,,6", "--carriers takes comma-separated integer ranks")])
def test_augment_rejects_unusable_carriers(built, tmp_path, carriers, why):
    # a carrier list that does not parse, or a carrier the construction
    # cannot use, ends the command with one line and writes nothing
    _, _, out = built
    with pytest.raises(SystemExit, match=f"^augment rejected: {why}"):
        main(["augment", "--build", str(out), "--out", str(tmp_path / "a"),
              "--carriers", carriers])
    assert not (tmp_path / "a").exists()


@pytest.mark.parametrize("argv, why, parsed_first", [
    (["--v-family", "schreier:x"], "unknown family 'schreier:x'", True),
    (["--v-c", "2"], "weight must satisfy 0 < c < 1", True),
    (["--c", "x"], "--c takes a rational such as 1/2, not 'x'$", True),
    (["--c", "1/0"], "--c takes a rational such as 1/2, not '1/0'$", True),
    (["--v-c", "1/0"], "--v-c takes a rational such as 1/2, not '1/0'$",
     True),
    (["--c", "1"], "augmentation weight must satisfy 0 < c <= 1/16", False)],
    ids=["v-family", "v-c", "c-literal", "c-zero-den", "v-c-zero-den", "c"])
def test_augment_rejects_bad_options(built, tmp_path, monkeypatch, argv, why,
                                     parsed_first):
    # an option that does not parse is refused before the rebuild; every
    # bad option ends the command with one line and writes nothing
    _, _, out = built
    if parsed_first:
        monkeypatch.setattr(cli, "realize_build", None)
    with pytest.raises(SystemExit, match=f"^augment rejected: {why}"):
        main(["augment", "--build", str(out), "--out", str(tmp_path / "a"),
              *argv])
    assert not (tmp_path / "a").exists()


def test_augment_refuses_out_at_the_build(built, tmp_path, monkeypatch):
    # augment writes stages.json and manifest.json, so an --out that
    # resolves to the build directory would overwrite the build; it is
    # refused in one line before the rebuild, and the build is unchanged
    _, _, out = built
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    monkeypatch.setattr(cli, "realize_build", None)
    for alias in (out, out / ".", out / ".." / out.name):
        with pytest.raises(SystemExit, match=f"^augment rejected: --out "
                           f"{re.escape(str(alias))} holds a build"):
            main(["augment", "--build", str(out), "--out", str(alias)])
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_augment_refuses_out_holding_another_build(built, tmp_path,
                                                   monkeypatch):
    # an --out holding another build would keep its seed, norming-set and
    # coding dumps beside an augment manifest, which no command could read
    _, _, out = built
    other = tmp_path / "other"
    shutil.copytree(out, other)
    before = {p.name: p.read_bytes() for p in other.iterdir()}
    monkeypatch.setattr(cli, "realize_build", None)
    with pytest.raises(SystemExit, match=f"^augment rejected: --out "
                       f"{re.escape(str(other))} holds a build; its dumps "
                       "would be overwritten$"):
        main(["augment", "--build", str(out), "--out", str(other)])
    assert {p.name: p.read_bytes() for p in other.iterdir()} == before


@pytest.mark.parametrize("command", ["verify", "augment"])
def test_augmentation_is_not_a_build(built, tmp_path, command):
    # an augmentation directory is named as such, not as a corrupt build;
    # augmenting again into it is allowed, as it holds no build
    _, _, out = built
    aug = tmp_path / "aug"
    for _ in range(2):
        assert main(["augment", "--build", str(out), "--out", str(aug),
                     "--carriers", ""]) == 0
    extra = (["--suite", "schema"] if command == "verify"
             else ["--out", str(tmp_path / "again")])
    with pytest.raises(SystemExit, match=f"^not a build: {re.escape(str(aug))}"
                                         " holds an augmentation$"):
        main([command, "--build", str(aug)] + extra)
    assert not (tmp_path / "again").exists()


@pytest.mark.parametrize("command", ["verify", "augment"])
def test_rebuild_drift_rejected_in_one_line(built, tmp_path, command):
    # a valid config edited in the manifest rebuilds other stages than the
    # dumps hold; the rebuild's dumps are hashed against the manifest's
    # before any suite runs, and nothing is written
    _, _, out = built
    edited = tmp_path / "edited"
    shutil.copytree(out, edited)
    manifest = json.loads((edited / "manifest.json").read_text())
    manifest["config"]["stage_bound"] = 4
    (edited / "manifest.json").write_text(json.dumps(manifest))
    before = {p.name: p.read_bytes() for p in edited.iterdir()}
    extra = ([] if command == "verify"
             else ["--out", str(tmp_path / "aug")])
    with pytest.raises(SystemExit, match="^build drift: stages.json differs "
                                         "from its rebuild$"):
        main([command, "--build", str(edited)] + extra)
    assert {p.name: p.read_bytes() for p in edited.iterdir()} == before
    assert not (tmp_path / "aug").exists()


def test_augment_rejects_skipped_mode(built, tmp_path):
    # augment has one admission rule and takes no --mode at all
    _, _, out = built
    with pytest.raises(SystemExit) as exc:
        main(["augment", "--build", str(out), "--out", str(tmp_path / "a"),
              "--mode", "skipped"])
    assert exc.value.code == 2
