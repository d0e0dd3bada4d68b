"""Import hygiene: every top-level import in a library module is used,
every name in its ``__all__`` is bound, scipy is imported in one module
only and never loaded by a check, and every memo is bounded.

A module-level import counts as used when the module refers to the
bound name anywhere (code or annotation) or lists it in ``__all__``.
``__init__.py`` is exempt: its imports are the package's re-exports.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "tanbun"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> list:
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [(a.asname or a.name.split(".")[0], node.lineno)
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [(a.asname or a.name, node.lineno) for a in node.names]
    return names


def _exported(tree: ast.Module) -> set:
    out = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            out |= {c.value for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)}
    return out


def unused_imports(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [f"{path.name}:{line}: {name}"
            for name, line in _imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_top_level_imports(path):
    assert unused_imports(path) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_name_in_all_is_bound(path):
    # so that `from tanbun.<module> import *` imports every listed name
    module = importlib.import_module(f"tanbun.{path.stem}")
    names = getattr(module, "__all__", [])
    assert [n for n in names if not hasattr(module, n)] == []
    assert len(names) == len(set(names))


def _scipy_imports(tree: ast.Module) -> list:
    mods = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            mods += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            mods.append(node.module)
    return [m for m in mods if m.split(".")[0] == "scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_universal_imports_scipy(path):
    # no search uses scipy; universal keeps scipy's minimize as
    # universal.minimize, loaded on first read, which bench/tracer.py wraps
    found = _scipy_imports(ast.parse(path.read_text(), filename=str(path)))
    assert found == (["scipy.optimize"] if path.stem == "universal" else [])


def _run_fresh(code: str) -> None:
    """Run code in a new interpreter: this session has scipy loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_tanbun_loads_scipy_only_for_a_collapse_search():
    _run_fresh("""
import sys
import tanbun
from tanbun import cli, universal

def loaded():
    return "scipy.optimize" in sys.modules

assert not loaded()
assert cli.main(["axioms"]) == 0 and not loaded()
assert cli.main(["check", "trivial_1_1", "--format", "json"]) == 0
assert not loaded()
assert not hasattr(universal, "nope") and not loaded()
""")


def test_universal_minimize_is_scipys_once_loaded():
    _run_fresh("""
from tanbun import universal
search = universal.minimize
import scipy.optimize
assert search is scipy.optimize.minimize
assert vars(universal)["minimize"] is search
""")


def test_the_collapse_searches_run_without_scipy():
    # bump_counterexample's rank collapse is found by the witness search
    # only, and conjugated_1_1 runs the search on four squares
    _run_fresh("""
import sys
from tanbun.corpus import corpus_run

bump = corpus_run("bump_counterexample")
assert bump.expectation_met
rank = [e for e in bump.reports["rosicky"].entries if e.law_id == "rank"]
assert rank[0].provenance.get("via") == "witness search", rank
assert corpus_run("conjugated_1_1").expectation_met
assert "scipy.optimize" not in sys.modules
""")


def _imports_raw_linalg(tree: ast.AST) -> bool:
    """Whether any import anywhere in tree reaches numpy's private
    numpy.linalg._umath_linalg gufuncs."""
    raw = "numpy.linalg._umath_linalg"
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.startswith(raw) for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith(raw) or (
                    node.module == "numpy.linalg"
                    and any(a.name == "_umath_linalg" for a in node.names)):
                return True
    return False


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.stem)
def test_only_jet_and_universal_call_the_raw_linalg_gufuncs(path):
    # jet._lstsq_stack calls gelsd and the universal plan the SVDs;
    # test_jet pins the signatures they rely on
    tree = ast.parse(path.read_text(), filename=str(path))
    assert _imports_raw_linalg(tree) == (path.stem in ("jet", "universal"))


# containers a module can bind at its top level, and the calls that write
# into one
CONTAINERS = (ast.Dict, ast.DictComp, ast.List, ast.ListComp, ast.Set,
              ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict",
                   "Counter", "WeakKeyDictionary", "WeakValueDictionary"}
MUTATORS = {"clear", "pop", "popitem", "setdefault", "update", "append",
            "extend", "insert", "add", "remove", "discard"}


def _module_containers(tree: ast.Module) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        func = value.func if isinstance(value, ast.Call) else None
        called = getattr(func, "id", getattr(func, "attr", None))
        if isinstance(value, CONTAINERS) or called in CONTAINER_CALLS:
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return names


def memo_breaches(path: Path) -> list:
    """Every lru_cache has a literal integer maxsize; no functools.cache,
    no bare lru_cache, and no module-level container that a function
    writes into (a hand-made cache such as a dict keyed by id())."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {a.asname or a.name: a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and node.module == "functools" for a in node.names}

    def functools_name(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"):
            return node.attr
        return None

    out = []
    called = {id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and functools_name(node.func) == "lru_cache"):
            size = node.args[0] if node.args else next(
                (k.value for k in node.keywords if k.arg == "maxsize"), None)
            if not (isinstance(size, ast.Constant)
                    and type(size.value) is int):
                out.append(f"{path.name}:{node.lineno}: lru_cache without "
                           f"a literal integer maxsize")
        elif (functools_name(node) in ("cache", "lru_cache")
              and id(node) not in called):
            out.append(f"{path.name}:{node.lineno}: unbounded or "
                       f"default-size {functools_name(node)}")

    state = _module_containers(tree)
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.ctx, (ast.Store, ast.Del))):
                holder = node.value
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                holder = node.func.value
            else:
                continue
            if isinstance(holder, ast.Name) and holder.id in state:
                out.append(f"{path.name}:{node.lineno}: module-level "
                           f"{holder.id} written in a function")
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.stem)
def test_every_memo_is_bounded(path):
    assert memo_breaches(path) == []


def test_the_memo_check_catches_each_kind_of_unbounded_cache(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("""\
import functools
from functools import cache, lru_cache as memo
_JAC_CACHE: dict = {}
_SEEN = []


@functools.lru_cache(maxsize=None)
def a(x):
    return x


@memo
def b(x):
    return x


@cache
def c(x):
    return x


@memo(maxsize=64)
def d(x):
    if len(_JAC_CACHE) > 512:
        _JAC_CACHE.clear()
    _JAC_CACHE[id(x)] = x
    _SEEN.append(x)
    return x
""")
    lines = sorted(int(found.split(":")[1]) for found in memo_breaches(src))
    assert lines == [7, 12, 17, 25, 26, 27]


def test_one_universality_gate():
    # every gate goes through report.Refused.gate, so its refusal text is
    # written once
    texts = [p.read_text().count("universality verdict is")
             for p in sorted(SRC.glob("*.py"))]
    assert sum(texts) == 1


def test_a_square_check_is_a_check_report():
    # one report type: a square's aggregate comes from its four laws, and
    # its depth from the config
    from dataclasses import fields
    from inspect import signature
    from tanbun.report import CheckReport, LawResult, Verdict
    from tanbun.universal import (
        PullbackVerdict, check_pullback, cross_check_equivalence,
    )
    assert issubclass(PullbackVerdict, CheckReport)
    assert "aggregate" not in {f.name for f in fields(PullbackVerdict)}
    for fn in (check_pullback, cross_check_equivalence):
        assert "t_depth" not in signature(fn).parameters, fn.__name__
    laws = [LawResult(law_id, "", Verdict.PASS_NUMERIC)
            for law_id in ("commutes", "injective", "rank")]
    pv = PullbackVerdict("sq", laws + [LawResult("surjective", "",
                                                 Verdict.FAIL)])
    assert pv.aggregate is Verdict.FAIL and not pv.ok


def _function_imports_of_universal(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [f"{path.stem}.{fn.name}" for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == "universal"]


def test_only_induce_addition_imports_universal_in_a_function():
    # bundle cannot import universal at its top level, which imports
    # bundle; every other module can
    found = [f for p in sorted(SRC.glob("*.py"))
             for f in _function_imports_of_universal(p)]
    assert found == ["bundle.induce_addition"]


def _users(name: str) -> list:
    """module.function for every reference to `name` under src/, by the
    innermost function around it (<module> outside any)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}      # ast.walk goes outer before inner: inner wins
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((id(n), fn.name) for n in ast.walk(fn))
        found += [f"{path.stem}.{owner.get(id(n), '<module>')}"
                  for n in ast.walk(tree)
                  if getattr(n, "id", getattr(n, "attr", None)) == name]
    return found


def test_one_rule_judges_every_sampled_law():
    # a law judged on samples goes through report.sampled_law, which with
    # equal_maps' sampled comparison is all that reads expr.worst_row
    assert sorted(_users("worst_row")) == [
        "expr._sampled_compare", "report.sampled_law"]
    assert all("_law_from_arrays" not in p.read_text()
               for p in SRC.glob("*.py"))


def test_universal_stacks_no_cone_object():
    # the preimages solve each leg's residual in one loop, with no
    # namespace standing in for a map that stacks the legs
    assert "SimpleNamespace" not in (SRC / "universal.py").read_text()
