"""Per-layer spans and counters, recorded from outside tanbun.

`Tracer.install()` replaces public functions and methods of tanbun with
wrappers.  A function that another module imported with
``from .expr import f`` is rebound in every loaded tanbun module that
holds the same object; a method is replaced on its class.  Each wrapper
records one span (name, start, end, parent) and the counters its
observer derives from the arguments and the result, and passes results
and exceptions through unchanged; an exception is counted under
``<name>.raised.<ExceptionType>``.  Spans stay in memory until
`summarize` turns them into per-name statistics.  `uninstall()` puts the
originals back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict


def _points(counters, name, args, kwargs, result):
    X = args[1] if len(args) > 1 else kwargs["X"]
    counters[f"{name}.points"] += len(X)


def _nonpoly(counters, name, args, kwargs, result):
    counters[f"{name}.nonpoly"] += result is None


def _eq_kind(counters, name, args, kwargs, result):
    counters[f"{name}.exact"] += result.kind == "equal"
    counters[f"{name}.refuted"] += result.kind == "not-equal"


def _none(counters, name, args, kwargs, result):
    counters[f"{name}.none"] += result is None


def _pullback_fail(counters, name, args, kwargs, result):
    counters[f"{name}.fail"] += result.aggregate.value == "fail"


def _corpus_entry(args, kwargs):
    return f"corpus.corpus_run.{args[0] if args else kwargs['name']}"


# (module, attribute path, observer, name function).  The metric name is
# the module's short name and the attribute path, e.g. expr.eval_batch.
TARGETS = (
    ("tanbun.expr", "jac_eval_batch", _points, None),
    ("tanbun.expr", "eval_batch", _points, None),
    ("tanbun.expr", "poly_normalize", _nonpoly, None),
    ("tanbun.expr", "equal_maps", _eq_kind, None),
    ("tanbun.expr", "parse_map", None, None),
    ("tanbun.jet", "solve_least_norm", _none, None),
    ("tanbun.jet", "jac_point", None, None),
    ("tanbun.jet", "ImplicitMap.eval_point", None, None),
    ("tanbun.jet", "ImplicitMap.push", None, None),
    ("tanbun.jet", "tangent_map", None, None),
    ("tanbun.jet", "pushforward", None, None),
    ("tanbun.jet", "check_all_axioms", None, None),
    ("tanbun.universal", "check_pullback", _pullback_fail, None),
    # scipy's Nelder-Mead, where the witness searches leave tanbun
    ("tanbun.universal", "minimize", None, None),
    ("tanbun.bundle", "check_predifferential", None, None),
    ("tanbun.bundle", "induce_addition", None, None),
    ("tanbun.bundle", "check_additive_laws", None, None),
    ("tanbun.splitting", "chi_checks", None, None),
    ("tanbun.splitting", "check_splitting", None, None),
    ("tanbun.splitting", "biproduct_check", None, None),
    ("tanbun.vb", "roundtrip_check", None, None),
    ("tanbun.vb", "check_module_laws", None, None),
    ("tanbun.corpus", "corpus_run", None, _corpus_entry),
    ("tanbun.cli", "parse_bundle_file", None, None),
    ("tanbun.cli", "run_check", None, None),
    ("tanbun.cli", "RunReport.to_json", None, None),
)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []          # (name, start, end, parent index or -1)
        self.counters = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, observe=None, name_of=None):
        """A wrapper around fn that records a span per call."""
        spans, stack, counters, clock = (self.spans, self._stack,
                                         self.counters, self.clock)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name_of(args, kwargs) if name_of else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                counters[f"{label}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx] = (label, start, clock(), parent)
                stack.pop()
            if observe is not None:
                observe(counters, label, args, kwargs, result)
            return result

        return traced

    def install(self, targets=TARGETS):
        for modname, *_ in targets:
            importlib.import_module(modname)
        tanbun_modules = [m for n, m in list(sys.modules.items())
                          if n == "tanbun" or n.startswith("tanbun.")]
        for modname, path, observe, name_of in targets:
            short = modname.rsplit(".", 1)[-1]
            name = f"{short}.{path}"
            owner = sys.modules[modname]
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig, observe, name_of))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, path)
            wrapper = self.wrap(name, orig, observe, name_of)
            for mod in tanbun_modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self):
        for holder, attr, orig in reversed(self._undo):
            setattr(holder, attr, orig)
        self._undo.clear()


def summarize(spans) -> dict:
    """Per span name: calls, total_s and self_s.

    self_s is a span's duration minus the durations of its direct
    children (calls are sequential, so children never overlap).  total_s
    counts a span only when no ancestor has the same name, so recursion
    is not counted twice.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        stats = out[name]
        stats["calls"] += 1
        stats["self_s"] += (end - start) - child[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            stats["total_s"] += end - start
    return dict(out)
