"""Rules on the package source that no test of a single module sees."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC = REPO / "src" / "bdspace"
TRACING = REPO / "bench" / "tracing.py"
MODULES = sorted(SRC.glob("*.py"))
OUTSIDE_LP = [p for p in MODULES if p.name != "lp.py"]


def _module_dicts(tree: ast.Module) -> list[str]:
    """Names bound at module level to an empty dict: the module's caches."""
    out = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        value = node.value
        if (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in ("dict", "OrderedDict")):
            out += [t.id for t in targets if isinstance(t, ast.Name)]
    return out


def _bounded(tree: ast.Module, name: str) -> bool:
    """Whether the module reads len(name) and empties or trims name."""
    measured = trimmed = False
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "len" and node.args
                and isinstance(node.args[0], ast.Name)
                and node.args[0].id == name):
            measured = True
        if (isinstance(node, ast.Attribute) and node.attr in (
                "clear", "popitem") and isinstance(node.value, ast.Name)
                and node.value.id == name):
            trimmed = True
    return measured and trimmed


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_random_draws_and_no_unbounded_module_caches(path):
    # every check decides its property, so nothing in the package draws
    # random samples; a dict at module level is shared by every caller for
    # the life of the process, so its module must bound it
    tree = ast.parse(path.read_text())
    imported = {a.name.split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import) for a in node.names}
    imported |= {node.module.split(".")[0] for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    assert "random" not in imported
    for name in _module_dicts(tree):
        assert _bounded(tree, name), f"nothing bounds the module dict {name}"


def test_cache_rule_fires():
    bad = ast.parse("_memo: dict = {}\n"
                    "def put(k, v):\n"
                    "    _memo[k] = v\n")
    assert _module_dicts(bad) == ["_memo"]
    assert not _bounded(bad, "_memo")
    good = ast.parse("_memo = {}\n"
                     "def put(k, v):\n"
                     "    if len(_memo) >= 8:\n"
                     "        _memo.clear()\n"
                     "    _memo[k] = v\n")
    assert _module_dicts(good) == ["_memo"]
    assert _bounded(good, "_memo")


def _lp_calls(tree: ast.Module) -> list:
    """(enclosing function, name) for every call of ``lp.check`` or
    ``lp.maximize``."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            func = getattr(child, "func", None)
            if (isinstance(child, ast.Call) and isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "lp"
                    and func.attr in ("check", "maximize")):
                out.append((where, func.attr))
            visit(child, where)
    visit(tree, None)
    return out


# the two distance LPs of the augmentation are not gauges; every other LP
# goes through lp.gauge, and every answer is certified inside lp.maximize
DIRECT_LPS = {("augmentation.py", "_annihilating_witness", "maximize"),
              ("augmentation.py", "_hull_distance", "maximize")}


@pytest.mark.parametrize("path", OUTSIDE_LP,
                         ids=[p.name for p in OUTSIDE_LP])
def test_lp_certified_in_one_place(path):
    tree = ast.parse(path.read_text())
    assert not any(isinstance(node, ast.ImportFrom) and node.module == "lp"
                   for node in ast.walk(tree))
    assert {(path.name, *c) for c in _lp_calls(tree)} <= DIRECT_LPS


def test_lp_rule_fires():
    bad = ast.parse("from . import lp\n"
                    "def norm(c, A, b):\n"
                    "    v, x, y = lp.maximize(c, A_eq=A, b_eq=b)\n"
                    "    return lp.check(c, v, x, y, A_eq=A, b_eq=b)\n"
                    "class Seed:\n"
                    "    def dual(self, f):\n"
                    "        return lp.gauge(f, self.cols)\n")
    assert _lp_calls(bad) == [("norm", "maximize"), ("norm", "check")]
    assert not {("decomp.py", *c) for c in _lp_calls(bad)} <= DIRECT_LPS
    good = ast.parse("def _hull_distance(aug, z):\n"
                     "    return lp.maximize(c, A_ub=A, b_ub=b)[0]\n")
    assert {("augmentation.py", *c) for c in _lp_calls(good)} <= DIRECT_LPS


def test_bench_tracing_targets_resolve():
    # the benchmark's tracer wraps functions by name from outside the
    # package and reads the Tsirelson memo by name: a rename would read 0
    # in its per-layer metrics instead of failing
    tree = ast.parse(TRACING.read_text())
    targets = next(node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Assign) and any(
                       isinstance(t, ast.Name) and t.id == "targets"
                       for t in node.targets))
    names = [(e.elts[0].value, e.elts[1].value) for e in targets.elts]
    assert len(names) > 20
    for module, attr in names:
        owner = importlib.import_module(module)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), (module, attr)
    read = {node.args[1].value for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and isinstance(node.args[0], ast.Name)
            and node.args[0].id == "tsirelson"}
    assert "_norm_memo" in read
    tsirelson = importlib.import_module("bdspace.tsirelson")
    for name in read:
        assert isinstance(getattr(tsirelson, name), dict), name


# ---------------------------------------------------------------------------
# the import graph: a process loads only the layers it runs
# ---------------------------------------------------------------------------

ACC_CONFIG = {
    "schema": "bdspace-config-v1",
    "seed": {"kind": "tsirelson", "name": "acc", "family": "schreier:1",
             "c": "1/16", "blocks": 4, "unconditional": False},
    "eps": "1/32",
    "stage_bound": 8,
}


def _modules(code: str, cwd: Path) -> set[str]:
    """The modules a fresh interpreter holds after running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    code += "\nimport sys\nprint('loaded:', *sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "loaded:"
    return set(last[1:])


def _loaded(code: str, cwd: Path) -> set[str]:
    """The bdspace modules a fresh interpreter holds after running
    ``code``, by their names inside the package (``bdspace`` itself)."""
    return {m.removeprefix("bdspace.") for m in _modules(code, cwd)
            if m.split(".")[0] == "bdspace"}


@pytest.mark.parametrize("module, layers", [
    ("bdspace", {"bdspace"}),
    ("bdspace.tsirelson", {"bdspace", "exact", "families", "tsirelson"})],
    ids=["package", "tsirelson"])
def test_import_loads_only_its_layers(tmp_path, module, layers):
    assert _loaded(f"import {module}", tmp_path) == layers


def test_cli_import_loads_no_build_layer(tmp_path):
    # argument parsing needs only exact and families; each command imports
    # the rest, and main imports argparse
    modules = _modules("import bdspace.cli", tmp_path)
    assert {"bdspace.cli", "bdspace.exact", "bdspace.families"} <= modules
    assert not modules & {"bdspace.decomp", "bdspace.construction",
                          "bdspace.bdcore", "bdspace.augmentation",
                          "bdspace.lp", "argparse"}


def test_build_and_verify_load_no_augmentation(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(ACC_CONFIG))
    build = tmp_path / "build"
    loaded = {argv[0]: _loaded("from bdspace.cli import main\n"
                               f"assert main({argv!r}) == 0", tmp_path)
              for argv in (["build", "--config", str(cfg), "--out", str(build)],
                           ["verify", "--build", str(build)])}
    assert (build / "report.json").exists()
    assert all({"decomp", "construction", "bdcore"} <= v
               for v in loaded.values())
    assert [cmd for cmd, v in loaded.items() if "augmentation" in v] == []


def test_pipeline_hashes_dumps_without_hashlib(tmp_path):
    # hashlib maps OpenSSL's libcrypto only to hash a few KB of JSON;
    # build, verify and augment hash with CPython's own SHA-256 module.
    # No layer imports dataclasses, which loads inspect, ast, dis, tokenize,
    # linecache and copy into every process
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(ACC_CONFIG))
    build, aug = tmp_path / "build", tmp_path / "aug"
    modules = _modules(
        "from bdspace.cli import main\n"
        + "".join(f"assert main({argv!r}) == 0\n" for argv in (
            ["build", "--config", str(cfg), "--out", str(build)],
            ["verify", "--build", str(build)],
            ["augment", "--build", str(build), "--out", str(aug)],
            ["norm", "3:1,4:1,5:1"])),
        tmp_path)
    assert "bdspace.augmentation" in modules
    assert (aug / "manifest.json").exists()
    assert not modules & {"dataclasses", "inspect", "hashlib", "_hashlib"}


# ---------------------------------------------------------------------------
# the public API: the names the package exported when it loaded every layer
# ---------------------------------------------------------------------------

PUBLIC_API = {
    "exact": "FinVec TriangularBasisChange UniverseMismatch",
    "families": "RegularFamily explicit is_admissible is_member is_spread "
                "max_union schreier singleton_plus_pair",
    "tsirelson": "DominationCertificate DualNormingSet TsirelsonSpec "
                 "build_dual_norming_set certify_domination "
                 "norming_functional tsirelson_norm vstar_norm",
    "decomp": "CDecomposition NormingSetD SeedSpace build_norming_set_D "
              "check_subsequential_upper norming_certificate "
              "optimal_c_decomposition tsirelson_seed",
    "bdcore": "AnalysisRecord BDBuild BuildError Report Verdict "
              "compute_constants condition_weight_split "
              "decomposition_constant validate_schema verify_analysis "
              "verify_dual_norms verify_extension_compatibility "
              "verify_extension_isometry",
    "construction": "EmbeddingBuild build_embedding embed_phi "
                    "interval_from_rank interval_rank m_seq "
                    "phi_functional_identity verify_coding verify_embedding",
    "augmentation": "AugmentedBuild LowerEstimateCertificate VCode Window "
                    "certify_lower_estimate lift_dual_functional "
                    "verify_augmentation verify_lift_identities",
}


def test_public_names_resolve_to_their_layer():
    import bdspace
    names = [n for layer in PUBLIC_API.values() for n in layer.split()]
    assert len(names) == len(set(names)) == 57
    assert sorted(bdspace.__all__) == sorted(names)
    for layer, listed in PUBLIC_API.items():
        module = importlib.import_module(f"bdspace.{layer}")
        for name in listed.split():
            value = getattr(bdspace, name)
            assert value is getattr(module, name), name
            assert value.__module__ == module.__name__, name


def test_namespace_star_dir_and_missing_name():
    import bdspace
    namespace = {}
    exec("from bdspace import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(bdspace.__all__)
    assert set(bdspace.__all__) <= set(dir(bdspace))
    with pytest.raises(AttributeError, match="'no_such_name'"):
        bdspace.no_such_name


# ---------------------------------------------------------------------------
# no knob that no caller sets
# ---------------------------------------------------------------------------

CALLERS = sorted([*MODULES, *(REPO / "demos").glob("*.py"),
                  *(REPO / "bench").glob("*.py")])

# parameters that only the tests pass, each for its reason
TEST_SEAMS = {
    ("build_dual_norming_set", "member_cap"): "tests shrink the cap to hit it",
    ("build_dual_norming_set", "signs"): "the bf_vstar_norm oracle builds "
                                         "the all-plus trees",
}


def _signatures(tree: ast.Module, names) -> dict:
    """Name -> [(positional, keyword-only) parameters] of each of ``names``
    defined at the top of ``tree``: a function's, or the explicit
    ``__init__``'s of a class, without self; and, under its own name, each
    public method's of such a class, without self (a property takes no
    call).  Methods of one name in several classes each add an entry."""
    out = {}

    def add(name, fn, bound):
        a = fn.args
        pos = [p.arg for p in a.posonlyargs + a.args]
        out.setdefault(name, []).append(
            (pos[1:] if bound else pos, [p.arg for p in a.kwonlyargs]))

    for node in tree.body:
        if getattr(node, "name", None) not in names:
            continue
        if isinstance(node, ast.FunctionDef):
            add(node.name, node, False)
            continue
        for fn in node.body:
            if not isinstance(fn, ast.FunctionDef):
                continue
            decorators = {ast.unparse(d) for d in fn.decorator_list}
            if fn.name == "__init__":
                add(node.name, fn, True)
            elif not fn.name.startswith("_") and "property" not in decorators:
                add(fn.name, fn, "staticmethod" not in decorators)
    return out


def _unpassed(signatures: dict, trees) -> set:
    """(name, parameter) for every parameter of a called name that no call
    passes, by position or by keyword; ``*args`` or ``**kwargs`` in a call
    passes every parameter it could.  A call by a name passes its arguments
    to every signature listed under the name.  A name no call reaches is an
    entry point, whose parameters are all its user's to set."""
    called, passed = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", None)
            if name not in signatures:
                continue
            called.add(name)
            for pos, kw in signatures[name]:
                given = set(pos[:len(node.args)])
                if any(isinstance(a, ast.Starred) for a in node.args):
                    given = set(pos)
                for k in node.keywords:
                    given |= set(pos + kw) if k.arg is None else {k.arg}
                passed |= {(name, p) for p in given}
    return {(n, p) for n in called for pos, kw in signatures[n]
            for p in pos + kw} - passed


def test_every_public_parameter_is_passed():
    # a parameter of a public function, class or public method that no
    # call in the package, the demos or the benchmark passes is a knob that
    # cannot help: it keeps a second path that no workload runs
    import bdspace
    signatures = {}
    for layer, names in bdspace._LAYERS.items():
        for name, sigs in _signatures(
                ast.parse((SRC / f"{layer}.py").read_text()), names).items():
            signatures.setdefault(name, []).extend(sigs)
    assert len(signatures) > 100
    assert len(signatures["to_json_obj"]) > 5
    trees = [ast.parse(p.read_text()) for p in CALLERS]
    assert _unpassed(signatures, trees) == set(TEST_SEAMS)


def test_parameter_rule_fires():
    lib = ast.parse("def certify(aug, blocks, alphas=None, *, cap=1): pass\n"
                    "class Seed:\n"
                    "    def __init__(self, name, atilde=None): pass\n"
                    "    def widen(self, by, scaled=False): pass\n"
                    "    @property\n"
                    "    def size(self): pass\n"
                    "    @staticmethod\n"
                    "    def parse(text, strict=True): pass\n"
                    "class Other:\n"
                    "    def widen(self, by): pass\n"
                    "def entry(x, y=0): pass\n")
    sigs = _signatures(lib, {"certify", "Seed", "Other", "entry"})
    assert sigs["Seed"] == [(["name", "atilde"], [])]
    assert sigs["widen"] == [(["by", "scaled"], []), (["by"], [])]
    assert sigs["parse"] == [(["text", "strict"], [])]
    assert "size" not in sigs
    calls = ast.parse("certify(a, b, cap=2)\n"
                      "seed = mod.Seed('s')\n"
                      "seed.widen(2)\n"
                      "Seed.parse('t', strict=False)\n")
    assert _unpassed(sigs, [calls]) == {("certify", "alphas"),
                                        ("Seed", "atilde"), ("widen", "scaled")}
    calls = ast.parse("certify(a, *rest, cap=2)\n"
                      "seed = Seed(**opts)\n"
                      "seed.widen(2, scaled=True)\n")
    assert _unpassed(sigs, [calls]) == set()
