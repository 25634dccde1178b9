"""Per-layer tracing for the benchmark, from outside the bdspace package.

Each traced function is replaced by a wrapper in the module or class that
defines it and in every loaded bdspace module that imported it by name (the
CLI imports most of its helpers that way, so patching only the defining
module would miss those calls).  A stack of open spans gives, per metric
name, the call count, the inclusive CPU time (outermost calls only, so
recursion is not counted twice) and the self time (time not covered by a
nested traced call).  Hooks add counters at the same boundaries.  Totals stay in memory
and are written as JSON when the process exits.

Run one CLI command traced:

    python bench/tracing.py SPANS.json build --config cfg.json --out build/
"""

from __future__ import annotations

import atexit
import functools
import importlib
import json
import sys
from pathlib import Path
from time import process_time


class Tracer:
    def __init__(self):
        self.enabled = True
        self.spans: dict[str, list] = {}   # name -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = {}  # summed over processes
        self.peaks: dict[str, float] = {}   # maximum over processes
        self.wrapped_calls = 0
        self._stack: list[list] = []        # [start, time of nested spans]
        self._depth: dict[str, int] = {}

    def count(self, name: str, by: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + by

    def peak(self, name: str, value: float) -> None:
        self.peaks[name] = max(self.peaks.get(name, 0), value)

    def active(self, name: str) -> bool:
        return self._depth.get(name, 0) > 0

    def wrap(self, fn, name: str, pre=None, post=None):
        """Wrap ``fn`` in a span called ``name``.

        ``pre(args, kwargs)`` runs before the call and its return value is
        handed to ``post(token, args, kwargs, result, exc)`` after it.
        """
        stack, depth = self._stack, self._depth

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            self.wrapped_calls += 1
            token = pre(args, kwargs) if pre else None
            frame = [process_time(), 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = process_time() - frame[0]
                stack.pop()
                depth[name] -= 1
                span = self.spans.setdefault(name, [0, 0.0, 0.0])
                span[0] += 1
                if depth[name] == 0:
                    span[1] += dur
                span[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if post:
                    post(token, args, kwargs, result, exc)

        return traced

    def patch(self, module: str, attr: str, name: str, pre=None, post=None):
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) and rebind
        every bdspace module-level name that refers to the same function."""
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        orig = getattr(owner, leaf)
        wrapped = self.wrap(orig, name, pre, post)
        setattr(owner, leaf, wrapped)
        if path:
            return
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] != "bdspace" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapped)

    def to_json_obj(self) -> dict:
        return {"spans": self.spans, "counts": self.counts,
                "peaks": self.peaks, "wrapped_calls": self.wrapped_calls}


def install(out_path: str) -> Tracer:
    """Patch the bdspace layers and write the totals to ``out_path`` at exit."""
    import bdspace.cli  # noqa: F401  (loads every layer before patching)
    from bdspace import lp, tsirelson

    t = Tracer()

    def lp_post(token, args, kwargs, result, exc):
        c = args[0] if args else kwargs["c"]
        a_ub = args[1] if len(args) > 1 else kwargs.get("A_ub", ())
        a_eq = args[3] if len(args) > 3 else kwargs.get("A_eq", ())
        m = len(a_ub) + len(a_eq)
        t.count("lp.tableau_cells", (m + 1) * (len(c) + len(a_ub) + m + 1))
        if isinstance(exc, lp.Infeasible):
            t.count("lp.infeasible")
        if t.active("decomp.dual_norm"):
            t.count("decomp.dual_norm.lp_solves")

    def memo_size(args, kwargs):
        return len(getattr(tsirelson, "_norm_memo", ()))

    def norm_post(token, args, kwargs, result, exc):
        if exc is None and memo_size(args, kwargs) == token:
            t.count("tsirelson.norm.hits")

    def result_size(metric, size):
        def post(token, args, kwargs, result, exc):
            if exc is None:
                t.peak(metric, size(result))
        return post

    def generated(token, args, kwargs, result, exc):
        if exc is None:
            t.count("tsirelson.generate.members", len(result.trees))

    def seed_size(args, kwargs):
        t.peak("decomp.generators", len(args[0].norming))

    def time_suites(token, args, kwargs, result, exc):
        if exc is None:
            for suite, run in result.items():
                result[suite] = t.wrap(run, f"cli.suite.{suite}")

    targets = [
        ("bdspace.lp", "maximize", "lp", None, lp_post),
        ("bdspace.decomp", "SeedSpace.dual_norm", "decomp.dual_norm",
         None, None),
        ("bdspace.decomp", "SeedSpace.validate", "decomp.validate",
         seed_size, None),
        ("bdspace.decomp", "build_norming_set_D", "decomp.build_D", None,
         result_size("decomp.D_members", lambda r: len(r.members))),
        ("bdspace.decomp", "norming_certificate",
         "decomp.norming_certificate", None, None),
        ("bdspace.decomp", "check_subsequential_upper",
         "decomp.upper_estimates", None, None),
        ("bdspace.tsirelson", "tsirelson_norm", "tsirelson.norm",
         memo_size, norm_post),
        ("bdspace.tsirelson", "build_dual_norming_set", "tsirelson.generate",
         None, generated),
        ("bdspace.tsirelson", "norming_functional",
         "tsirelson.norming_functional", None, None),
        ("bdspace.families", "is_member", "families.is_member", None, None),
        ("bdspace.bdcore", "BDBuild.apply_Jm", "bdcore.apply_Jm", None, None),
        ("bdspace.bdcore", "verify_extension_isometry", "bdcore.isometry",
         None, None),
        ("bdspace.bdcore", "compute_constants", "bdcore.projection_norms",
         None, None),
        ("bdspace.bdcore", "verify_dual_norms", "bdcore.dual_norms",
         None, None),
        ("bdspace.exact", "TriangularBasisChange.to_d", "exact.to_d",
         None, None),
        ("bdspace.construction", "build_embedding",
         "construction.build_embedding", None,
         result_size("bdcore.elements",
                     lambda r: sum(len(v) for v in r.bd.stages.values()))),
        ("bdspace.construction", "verify_embedding",
         "construction.verify_embedding", None, None),
        ("bdspace.construction", "embed_phi", "construction.embed_phi",
         None, None),
        ("bdspace.augmentation", "AugmentedBuild.__init__",
         "augmentation.setup", None, None),
        ("bdspace.augmentation", "AugmentedBuild.make_carrier",
         "augmentation.setup", None, None),
        ("bdspace.augmentation", "certify_lower_estimate",
         "augmentation.certify", None, None),
        ("bdspace.augmentation", "verify_augmentation",
         "augmentation.verify", None, None),
        ("bdspace.cli", "realize_build", "cli.realize_build", None, None),
        ("bdspace.cli", "_suite_runners", "cli.suite_runners", None,
         time_suites),
    ]
    for module, attr, name, pre, post in targets:
        t.patch(module, attr, name, pre, post)

    def write():
        t.enabled = False
        t.peak("tsirelson.memo_entries",
               len(getattr(tsirelson, "_norm_memo", ())))
        Path(out_path).write_text(json.dumps(t.to_json_obj()))

    atexit.register(write)
    return t


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    install(out_path)
    from bdspace.cli import main as cli_main
    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
