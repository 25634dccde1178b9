"""Golden outputs: the SHA-256 of every output of the CLI on a fixed corpus.

Each entry ``golden/NAME`` holds a ``config.json`` and a ``pins.json``.
The test builds and verifies the config through ``cli.main`` and, when the
pins name augment outputs, augments the build with the default options.
It runs in a temporary directory with relative paths, since ``report.json``
records the build directory and the augment manifest records its base.
An output changed on purpose is re-pinned by copying its new hash, which a
failure prints, into ``pins.json`` in the same change.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from bdspace.cli import DUMPS, main
from conftest import GOLDEN, REPO, bench_constant, golden_config

ENTRIES = sorted(p.name for p in GOLDEN.iterdir() if p.is_dir())
BUILD_OUTPUTS = (*DUMPS, "manifest.json", "report.json")
AUGMENT_OUTPUTS = ("stages.json", "manifest.json")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _pins(name: str) -> dict:
    return json.loads((GOLDEN / name / "pins.json").read_text())


@pytest.mark.parametrize("name", ENTRIES)
def test_golden_outputs(name, tmp_path, monkeypatch, capsys):
    pins = _pins(name)
    monkeypatch.chdir(tmp_path)
    config = str(GOLDEN / name / "config.json")
    assert main(["build", "--config", config, "--out", "build"]) == 0
    capsys.readouterr()
    main(["verify", "--build", "build"])
    got = {"verify-lines": _sha256(capsys.readouterr().out.encode())}
    got |= {f: _sha256(Path("build", f).read_bytes()) for f in BUILD_OUTPUTS}
    if any(key.startswith("augment/") for key in pins):
        main(["augment", "--build", "build", "--out", "augment"])
        got |= {f"augment/{f}": _sha256(Path("augment", f).read_bytes())
                for f in AUGMENT_OUTPUTS}
    table = "\n".join(
        f"{'  ' if pins.get(k) == got.get(k) else '! '}{k}: pinned "
        f"{pins.get(k)}, actual {got.get(k)}" for k in sorted(pins | got))
    assert got == pins, f"{name} differs from its pins:\n{table}"


@pytest.mark.parametrize("name, workload, config", [
    ("acc", "acc-pipeline", "acc_config"),
    ("halfnorm", "halfnorm-pipeline", "halfnorm_config")])
def test_golden_corpus_matches_benchmark(name, workload, config):
    # the benchmark builds the corpus's configs and pins the same dumps
    inputs = runpy.run_path(str(REPO / "bench" / "inputs.py"))
    assert golden_config(name) == inputs[config]()
    pinned = bench_constant("PINNED_DUMPS")[workload]
    assert {f: _pins(name)[f] for f in pinned} == pinned
