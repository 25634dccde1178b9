import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from bdspace import cli
from bdspace.bdcore import Report
from bdspace.cli import main, parse_family, parse_vector
from bdspace.families import is_member

REPO = Path(__file__).resolve().parents[1]
SUITES = ["analysis", "coding", "compat", "cuts", "dual-norms", "embedding",
          "idempotence", "isometry", "norming-set", "projection-norms",
          "schema", "upper-estimates", "weight-split"]
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


def test_config_ignores_unread_keys(tmp_path):
    # "samples" sized a sampled embedding suite that no longer exists; a
    # config that still sets it loads like any key the driver does not read
    old = dict(CONFIG, samples=10)
    p = tmp_path / "old.json"
    p.write_text(json.dumps(old))
    assert cli.load_config(str(p)) == old


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
    # a finite stage settles neither compactness of the cuts nor the upper
    # estimates: their verdicts are INCONCLUSIVE and AT-CAP, and exit 0
    _, _, out = built
    assert main(["verify", "--build", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.startswith("[INCONCLUSIVE] ")] == [
        ln for ln in lines if " cuts: " in ln]
    assert [ln for ln in lines if ln.startswith("[AT-CAP] ")] == [
        ln for ln in lines if " upper-estimates: " in ln]
    assert all(ln.startswith("[PASS] ") for ln in lines
               if " cuts: " not in ln and " upper-estimates: " not in ln)
    assert all(" :: " in ln for ln in lines if not ln.startswith("[PASS] "))
    reports = json.loads((out / "report.json").read_text())["reports"]
    assert {r["suite"] for r in reports} == set(SUITES)
    assert {r["verdict"] for r in reports} <= VERDICTS
    assert all(r["ok"] == (r["verdict"] != "FAIL") for r in reports)
    assert main(["report", "--build", str(out)]) == 0
    assert capsys.readouterr().out.splitlines() == lines + [
        "overall: PASS with 1 INCONCLUSIVE, 1 AT-CAP"]


def test_verify_fail_exits_nonzero(built, tmp_path, monkeypatch, capsys):
    _, _, out = built
    copy = tmp_path / "build"
    shutil.copytree(out, copy)
    monkeypatch.setattr(cli, "verify_coding",
                        lambda eb: Report("coding", violations=["injected"]))
    assert main(["verify", "--build", str(copy), "--suite", "coding"]) == 1
    assert "[FAIL] coding: coding :: injected" in capsys.readouterr().out
    report = json.loads((copy / "report.json").read_text())
    assert report["failed"]
    assert report["reports"][0]["verdict"] == "FAIL"
    assert main(["report", "--build", str(copy)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "overall: FAIL"


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
    assert emb == {"||phi||": "128/129"} | {
        f"delta[{lo},{hi}]": "1/129" for lo in range(1, 5)
        for hi in range(lo, 5)}


def test_norm_command(capsys):
    assert main(["norm", "--family", "schreier:1", "--c", "1/2",
                 "3:1,4:1,5:1"]) == 0
    assert capsys.readouterr().out.strip() == "3/2"
    assert main(["norm", "--family", "schreier:1", "--c", "1/2",
                 "--vector", "3:1,4:1,5:1"]) == 0
    assert capsys.readouterr().out.strip() == "3/2"


def test_norm_empty_vector(capsys):
    assert main(["norm", "--family", "schreier:1", "--c", "1/2", " "]) == 0
    assert capsys.readouterr().out.strip() == "0"


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
    ("2,3", "blocks violate the separation condition")])
def test_augment_rejects_unusable_carriers(built, tmp_path, carriers, why):
    # a carrier the construction cannot use ends the command with one line
    _, _, out = built
    with pytest.raises(SystemExit, match=f"^augment rejected: {why}"):
        main(["augment", "--build", str(out), "--out", str(tmp_path / "a"),
              "--carriers", carriers])
    assert not (tmp_path / "a").exists()


def test_augment_rejects_skipped_mode(built, tmp_path):
    # skipped mode needs a lower-estimate constant the CLI does not take
    _, _, out = built
    with pytest.raises(SystemExit) as exc:
        main(["augment", "--build", str(out), "--out", str(tmp_path / "a"),
              "--mode", "skipped"])
    assert exc.value.code == 2
