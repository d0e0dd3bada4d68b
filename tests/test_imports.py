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
import re
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


def test_no_function_imports_universal():
    # universal imports bundle, and nothing in bundle needs universal: a
    # construction is handed the verdict it is gated on
    found = [f for p in sorted(SRC.glob("*.py"))
             for f in _function_imports_of_universal(p)]
    assert found == []


def test_only_the_suite_runners_check_a_square():
    # corpus._run_bundle and universal.cross_check_equivalence decide
    # which squares run; no gate runs one of its own
    assert set(_users("check_pullback")) == {
        "corpus._run_bundle", "universal.cross_check_equivalence"}
    tree = ast.parse((SRC / "bundle.py").read_text())
    assert not [n for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom)
                and n.module in ("universal", "tanbun.universal")]


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


def _top_level_names(path: Path) -> set:
    tree = ast.parse(path.read_text(), filename=str(path))
    return {t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets if isinstance(t, ast.Name)} | {
        node.name for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_one_collapse_search_and_one_face_push():
    # the compass search replaced a port of scipy's Nelder-Mead, and
    # submersion's own face push and one-point score went with it
    nelder_mead = {"_nelder_mead", "_RHO", "_CHI", "_PSI", "_SIGMA",
                   "_NONZDELT", "_ZDELT", "_MAXITER", "_XATOL", "_FATOL"}
    assert not nelder_mead & _top_level_names(SRC / "universal.py")
    assert not {"_face_push", "_min_singular"} & _top_level_names(
        SRC / "submersion.py")
    pushes = [f"{p.stem}.{name}" for p in sorted(SRC.glob("*.py"))
              for name in _top_level_names(p) if "face_push" in name]
    assert pushes == ["universal.face_push"]
    # the rank law's witness search and the submersion search
    assert sorted(_users("collapse_search")) == [
        "submersion._collapse_search", "universal._rank_witness_search"]
    assert sorted(_users("face_push")) == [
        "submersion.is_submersion_on", "universal._rank_witness_search"]


def test_one_node_hash_one_rebuild_and_one_structure_table():
    # every node kind that keeps its hash gets it from one decorator, and
    # one rebuild serves normalize and substitute_vars
    tree = ast.parse((SRC / "expr.py").read_text())
    nodes = [c for c in tree.body if isinstance(c, ast.ClassDef)
             and any(getattr(b, "id", None) == "Expr" for b in c.bases)]
    assert len(nodes) == 7
    assert [c.name for c in nodes for fn in c.body
            if getattr(fn, "name", None) == "__hash__"] == []
    assert sorted(_users("_rebuild")) == [
        "expr.normalize", "expr.substitute_vars"]
    # the structure maps are a read-only mapping from kind to formula
    from tanbun.jet import STANDARD_STRUCTS
    assert "StructSet" not in _top_level_names(SRC / "jet.py")
    with pytest.raises(TypeError):
        STANDARD_STRUCTS["lift"] = STANDARD_STRUCTS["zero"]


CALLERS = [p for d in ("src/tanbun", "tests", "bench")
           for p in sorted((SRC.parent.parent / d).glob("*.py"))]


def _calls(tree: ast.AST) -> list:
    """(name, positional count, keywords, spread) for every call in tree:
    name is the called name or attribute, and spread says whether the
    call passes *args or **kwargs.  A cls(...) call in a classmethod is
    also a call of its class."""
    calls = [(getattr(n.func, "id", getattr(n.func, "attr", None)), n)
             for n in ast.walk(tree) if isinstance(n, ast.Call)]
    for cls in ast.walk(tree):
        for fn in getattr(cls, "body", []) if isinstance(
                cls, ast.ClassDef) else []:
            if isinstance(fn, ast.FunctionDef) and any(
                    getattr(d, "id", None) == "classmethod"
                    for d in fn.decorator_list):
                calls += [(cls.name, n) for n in ast.walk(fn)
                          if isinstance(n, ast.Call)
                          and getattr(n.func, "id", None)
                          == fn.args.args[0].arg]
    return [(name, sum(not isinstance(a, ast.Starred) for a in n.args),
             {k.arg for k in n.keywords},
             any(isinstance(a, ast.Starred) for a in n.args)
             or any(k.arg is None for k in n.keywords))
            for name, n in calls]


def unset_options() -> list:
    """module.function(param=) for each defaulted parameter of a function
    under src/ that no call in CALLERS sets, by keyword, by position or
    through *args or **kwargs.  Calls are matched by name; a method's
    positions skip self or cls, and __init__ is called by its class."""
    calls = {}
    for path in CALLERS:
        for name, *call in _calls(ast.parse(path.read_text())):
            calls.setdefault(name, []).append(call)
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {id(fn): cls.name for cls in ast.walk(tree)
                 if isinstance(cls, ast.ClassDef) for fn in cls.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            static = any(getattr(d, "id", None) == "staticmethod"
                         for d in fn.decorator_list)
            skip = int(id(fn) in owner and not static)
            name = owner[id(fn)] if (fn.name == "__init__"
                                     and id(fn) in owner) else fn.name
            a = fn.args
            pos = a.posonlyargs + a.args
            opts = [(i - skip, p.arg) for i, p in enumerate(pos)
                    if i >= len(pos) - len(a.defaults)]
            opts += [(None, p.arg) for p, d in zip(a.kwonlyargs,
                                                   a.kw_defaults) if d]
            found += [f"{path.stem}.{fn.name}({arg}=)" for i, arg in opts
                      if not any(spread or arg in kws
                                 or (i is not None and npos > i)
                                 for npos, kws, spread in calls.get(name, []))]
    return found


def test_every_option_is_set_by_some_call():
    # a defaulted parameter that no call in src/, tests/ or bench/ sets is
    # an option nobody uses: make it a constant or drop it
    assert unset_options() == []


def _package_imports() -> list:
    """(module, name) for every name tanbun/__init__.py imports."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, a.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for a in node.names]


def test_the_package_reexports_only_public_names():
    # each module's __all__ is its public surface, so what the package
    # re-exports is listed there; test_every_name_in_all_is_bound checks
    # that every listed name exists
    missing = [f"{module}.{name}" for module, name in _package_imports()
               if name not in _exported(ast.parse(
                   (SRC / f"{module}.py").read_text()))]
    assert missing == []


def test_the_deleted_submersion_api_stays_deleted():
    # horizontal lifts, the closure harness and psi's own module-law
    # check had no caller outside their tests
    gone = ("closure_harness", "horizontal_lift", "lift_section_map",
            "check_lift_section", "RankDeficient", "ModuleLawsFailed")
    assert [f"{p.name}: {n}" for p in sorted(SRC.glob("*.py")) for n in gone
            if re.search(rf"\b{n}\b", p.read_text())] == []
