"""Command-line front end: bundle files, the built-in corpus, and
machine- or human-readable reports.

Exit codes: 0 all checks pass, 1 a check fails, 2 inconclusive,
3 usage error (bad flags, missing file, parse failure, unknown name).
For corpus runs the code reflects whether observed outcomes matched the
recorded expectations, so an expected failure exits 0.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache, partial

import numpy as np

from .expr import (
    Box, CheckConfig, DEFAULT_CONFIG, ExprError, parse_map, _CONFIG_RULES,
    _config_error,
)
from .bundle import BundleSpec
from .jet import check_all_axioms
from .vb import VectorBundleSpec
from .corpus import (
    SUITE_ORDER, UnknownCorpusEntry, corpus_entry, corpus_list, corpus_run,
    run_suites,
)
from .report import Verdict

__all__ = [
    "BundleFileError", "UsageError", "RunReport", "parse_bundle_file",
    "run_check", "corpus_payload", "main",
]

SCHEMA = "tanbun-report/1"
CORPUS_SCHEMA = "tanbun-corpus/1"


@lru_cache(maxsize=1)
def _version() -> str:
    try:
        from importlib.metadata import version
        return version("tanbun")
    except Exception:
        return "0.1.0"


class BundleFileError(ExprError):
    pass


class UsageError(ExprError):
    pass


# --------------------------------------------------------------------------
# Bundle definition files: UTF-8, line-oriented `key = value`, comments
# from `#`, expression values in the map DSL, boxes as `lo..hi` pairs.


_MAP_KEYS = ("q", "xi", "lambda", "add", "scalar")
_INT_KEYS = ("base_dim", "total_dim", "samples", "seed", "depth")
_KNOWN_KEYS = (("name", "kind", "base_box", "total_box", "suite", "tol")
               + _MAP_KEYS + _INT_KEYS)


def _number(conv, text: str):
    """conv(text) for a number in a file, a flag or TANBUN_SEED.  int(),
    float() and Fraction() also read any Unicode digit and underscores;
    only ASCII without underscores is a number here (ValueError)."""
    if not text.isascii() or "_" in text:
        raise ValueError(f"{text!r}: a number is written in ASCII, "
                         f"without underscores")
    return conv(text)


def _parse_interval(part: str, where: str):
    pieces = part.split("..")
    if len(pieces) != 2:
        raise BundleFileError(f"{where}: interval {part!r} is not lo..hi")
    try:
        lo, hi = (_number(Fraction, p.strip()) for p in pieces)
    except (ValueError, ZeroDivisionError) as exc:
        raise BundleFileError(f"{where}: bad interval bound: {exc}")
    if not lo < hi:
        raise BundleFileError(f"{where}: empty interval {part!r}")
    return lo, hi


def _parse_box(value: str, where: str) -> Box:
    parts = [p for p in value.split(",") if p.strip()]
    if not parts:
        raise BundleFileError(f"{where}: empty box")
    return Box(tuple(_parse_interval(p, where) for p in parts))


def parse_bundle_file(text: str, source: str = "<input>"):
    """Parse a bundle definition into a spec plus run overrides.

    Returns (spec, overrides) where spec is a BundleSpec or a
    VectorBundleSpec and overrides holds suite/tol/samples/seed/depth
    values found in the file.
    """
    raw = {}
    lines = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise BundleFileError(
                f"{source}:{lineno}: expected `key = value`, got {line!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if key not in _KNOWN_KEYS:
            raise BundleFileError(f"{source}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise BundleFileError(f"{source}:{lineno}: duplicate key {key!r}")
        if not value:
            raise BundleFileError(f"{source}:{lineno}: empty value for "
                                  f"{key!r}")
        raw[key] = value
        lines[key] = lineno

    def where(key):
        return f"{source}:{lines[key]}"

    def need(key):
        if key not in raw:
            raise BundleFileError(f"{source}: missing required key {key!r}")
        return raw[key]

    kind = raw.get("kind", "bundle")
    if kind not in ("bundle", "vector"):
        raise BundleFileError(f"{where('kind')}: kind must be bundle or "
                              f"vector, got {kind!r}")

    name = need("name")
    dims = []
    for key in ("base_dim", "total_dim"):
        try:
            dims.append(_number(int, need(key)))
        except ValueError as exc:
            raise BundleFileError(f"{where(key)}: bad dimension: {exc}")
    base_dim, total_dim = dims
    if not (0 < base_dim <= total_dim):
        raise BundleFileError(
            f"{source}: need 0 < base_dim <= total_dim, got "
            f"{base_dim} and {total_dim}")

    base_box = _parse_box(need("base_box"), where("base_box"))
    total_box = _parse_box(need("total_box"), where("total_box"))
    if base_box.dim != base_dim:
        raise BundleFileError(f"{where('base_box')}: box has "
                              f"{base_box.dim} intervals, base_dim is "
                              f"{base_dim}")
    if total_box.dim != total_dim:
        raise BundleFileError(f"{where('total_box')}: box has "
                              f"{total_box.dim} intervals, total_dim is "
                              f"{total_dim}")

    arities = {"q": total_dim, "xi": base_dim, "lambda": total_dim,
               "add": 2 * total_dim, "scalar": 1 + total_dim}
    maps = {}
    for key in _MAP_KEYS:
        if key not in raw:
            continue
        try:
            maps[key] = parse_map(raw[key], arities[key])
        except ExprError as exc:
            raise BundleFileError(f"{where(key)}: {exc}")

    overrides = {}
    if "suite" in raw:
        if raw["suite"] != "all" and raw["suite"] not in SUITE_ORDER:
            raise BundleFileError(f"{where('suite')}: unknown suite "
                                  f"{raw['suite']!r}")
        overrides["suite"] = raw["suite"]
    for key, conv in (("tol", float), ("samples", int), ("seed", int),
                      ("depth", int)):
        if key in raw:
            try:
                overrides[key] = _number(conv, raw[key])
            except ValueError as exc:
                raise BundleFileError(f"{where(key)}: {exc}")
    for field, (key, _, _) in _CONFIG_RULES.items():
        bad = key in overrides and _config_error(field, overrides[key], key)
        if bad:
            raise BundleFileError(f"{where(key)}: {bad}")

    for key in ("q", "xi"):
        need(key)
    try:
        if kind == "vector":
            if "lambda" in maps:
                raise BundleFileError(f"{where('lambda')}: 'lambda' is not "
                                      f"part of a vector bundle definition")
            for key in ("add", "scalar"):
                if key not in maps:
                    raise BundleFileError(
                        f"{source}: vector bundles need {key!r}")
            spec = VectorBundleSpec(
                name=name, base_dim=base_dim, total_dim=total_dim,
                base_box=base_box, total_box=total_box,
                q=maps["q"], xi=maps["xi"],
                add=maps["add"], scalar=maps["scalar"])
        else:
            if "lambda" not in maps:
                raise BundleFileError(f"{source}: bundles need 'lambda'")
            spec = BundleSpec(
                name=name, base_dim=base_dim, total_dim=total_dim,
                base_box=base_box, total_box=total_box,
                q=maps["q"], xi=maps["xi"],
                lam=maps["lambda"], add=maps.get("add"),
                scalar=maps.get("scalar"))
    except BundleFileError:
        raise
    except ExprError as exc:
        raise BundleFileError(f"{source}: {exc}")
    return spec, overrides


# --------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class RunReport:
    tool: str
    source: str
    digest: str
    suite: str
    seed: int
    samples: int
    tol: float
    depth: int
    force: bool
    aggregate: Verdict
    wall_clock_s: float
    suites: tuple      # (suite_id, trusted, CheckReport)

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "tool": self.tool,
            "source": self.source,
            "digest": self.digest,
            "suite": self.suite,
            "seed": self.seed,
            "samples": self.samples,
            "tol": self.tol,
            "depth": self.depth,
            "force": self.force,
            "aggregate": self.aggregate.value,
            "wall_clock_s": self.wall_clock_s,
            "suites": [{"id": sid, "trusted": trusted, **_report_dict(rep)}
                       for sid, trusted, rep in self.suites],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def to_text(self) -> str:
        head = (f"tanbun {self.tool} -- {self.source} "
                f"(suite {self.suite}, seed {self.seed}, "
                f"samples {self.samples}, tol {self.tol:g}, "
                f"depth {self.depth})")
        body = []
        for sid, trusted, rep in self.suites:
            mark = "" if trusted else "  [UNTRUSTED: ran after a failure]"
            body.append(rep.describe() + mark)
        tail = f"aggregate: {self.aggregate.value} ({self.wall_clock_s:.1f}s)"
        return "\n".join([head] + body + [tail])


def _plain(obj):
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return str(obj)     # "nan", "inf", "-inf": JSON has no such number
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (tuple, list)):
        return [_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, Verdict):
        return obj.value
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    return str(obj)


def _law_dict(e) -> dict:
    return {
        "law": e.law_id,
        "anchor": e.anchor,
        "verdict": e.verdict.value,
        "max_residual": float(e.max_residual),
        "witness": _plain(e.witness),
        "note": e.note,
        "provenance": _plain(e.provenance),
    }


def _report_dict(rep) -> dict:
    return {"aggregate": rep.aggregate.value,
            "laws": [_law_dict(e) for e in rep.entries]}


def _exit_code(aggregate: Verdict) -> int:
    if aggregate.ok:
        return 0
    if aggregate is Verdict.FAIL:
        return 1
    return 2


# --------------------------------------------------------------------------
# check


def _resolve_input(target: str):
    """A path to a bundle file, or the name of a corpus entry that
    carries standalone chart data."""
    if os.path.exists(target):
        try:
            with open(target, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {target}: {exc}")
        spec, overrides = parse_bundle_file(text, source=target)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        return spec, overrides, digest
    try:
        entry = corpus_entry(target)
    except UnknownCorpusEntry:
        raise UsageError(f"{target!r} is neither a file nor a corpus entry")
    if entry.build is None:
        raise UsageError(f"corpus entry {target!r} has no standalone chart "
                         f"data; use `tanbun corpus run {target}`")
    digest = hashlib.sha256(f"corpus:{target}".encode()).hexdigest()
    return entry.build(), {}, digest


def _make_config(args, overrides) -> tuple:
    """The config of a run: each field from its flag, else from its key
    in the file, else from DEFAULT_CONFIG (the seed from TANBUN_SEED
    first)."""
    defaults = asdict(DEFAULT_CONFIG)
    env_seed = os.environ.get("TANBUN_SEED")
    if env_seed is not None:
        try:
            defaults["seed"] = _number(int, env_seed)
        except ValueError:
            raise UsageError(f"TANBUN_SEED must be an integer, got "
                             f"{env_seed!r}")
    values = {}
    for field, (key, _, _) in _CONFIG_RULES.items():
        flag = getattr(args, key)
        values[field] = flag if flag is not None \
            else overrides.get(key, defaults[field])
        bad = _config_error(field, values[field], key)
        if bad:
            raise UsageError(bad)
    flag_suite = getattr(args, "suite", None)
    suite = flag_suite if flag_suite is not None \
        else overrides.get("suite", "all")
    return CheckConfig(**values), suite


def run_check(target: str, args) -> tuple:
    """Execute the staged suite on a file or corpus entry; returns
    (RunReport, exit_code)."""
    spec, overrides, digest = _resolve_input(target)
    cfg, suite = _make_config(args, overrides)

    t0 = time.perf_counter()
    reports = run_suites(spec, cfg, suite, force=args.force)
    wall = time.perf_counter() - t0

    suites = []
    failed_before = False
    for sid, rep in reports.items():
        trusted = not (args.force and failed_before)
        suites.append((sid, trusted, rep))
        if rep.aggregate is Verdict.FAIL:
            failed_before = True
    aggregate = Verdict.reduce(rep.aggregate for rep in reports.values())
    report = RunReport(
        tool=_version(), source=target, digest=digest, suite=suite,
        seed=cfg.seed, samples=cfg.count, tol=cfg.tol, depth=cfg.t_depth,
        force=args.force, aggregate=aggregate, wall_clock_s=round(wall, 3),
        suites=tuple(suites))
    return report, _exit_code(aggregate)


# --------------------------------------------------------------------------
# corpus


def _corpus_result_dict(res) -> dict:
    return {
        "name": res.name,
        "expected": res.expected,
        "aggregate": res.aggregate.value,
        "failed_laws": list(res.failed_laws),
        "expectation_met": res.expectation_met,
        "seconds": round(res.seconds, 3),
        "suites": {sid: _report_dict(rep)
                   for sid, rep in res.reports.items()},
    }


def corpus_payload(results, cfg: CheckConfig) -> dict:
    """The JSON document of `tanbun corpus run` for these results."""
    return {"schema": CORPUS_SCHEMA, "tool": _version(), "seed": cfg.seed,
            "samples": cfg.count, "tol": cfg.tol, "depth": cfg.t_depth,
            "results": [_corpus_result_dict(r) for r in results]}


def _cmd_corpus(args) -> int:
    if args.action == "list":
        if args.format == "json":
            payload = [
                {"name": e.name, "kind": e.kind, "expected": e.expected,
                 "note": e.note}
                for e in corpus_list()
            ]
            print(json.dumps({"schema": CORPUS_SCHEMA, "entries": payload},
                             sort_keys=True, indent=2))
        else:
            for e in corpus_list():
                print(f"{e.name:34s} {e.kind:8s} expected {e.expected:4s}  "
                      f"{e.note}")
        return 0

    cfg, _ = _make_config(args, {})
    names = [args.name] if args.name else [e.name for e in corpus_list()]
    results = [corpus_run(name, cfg) for name in names]
    if args.format == "json":
        print(json.dumps(corpus_payload(results, cfg), sort_keys=True,
                         indent=2))
    else:
        for r in results:
            flag = "ok " if r.expectation_met else "BAD"
            failed = f"  failed: {', '.join(r.failed_laws)}" \
                if r.failed_laws else ""
            print(f"{flag} {r.name:34s} {r.aggregate.value:10s} "
                  f"expected {r.expected:4s} {r.seconds:6.1f}s{failed}")
            if args.verbose:
                for rep in r.reports.values():
                    print(rep.describe())
        met = sum(r.expectation_met for r in results)
        print(f"{met}/{len(results)} expectations met")
    return 0 if all(r.expectation_met for r in results) else 1


def _cmd_axioms(args) -> int:
    try:
        dims = tuple(_number(int, p.strip()) for p in args.dims.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --dims: {exc}")
    cfg, _ = _make_config(args, {})
    rep = check_all_axioms(dims, cfg=cfg)
    if args.format == "json":
        print(json.dumps(
            {"schema": SCHEMA, "tool": _version(), **_report_dict(rep)},
            sort_keys=True, indent=2))
    else:
        print(rep.describe())
    return _exit_code(rep.aggregate)


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _flag_number(conv):
    """An argparse type reading a flag with _number; argparse reports a
    bad value as `argument --seed: invalid int value: '1_0'`."""
    parse = partial(_number, conv)
    parse.__name__ = conv.__name__
    return parse


def _add_config_flags(p):
    p.add_argument("--samples", type=_flag_number(int), default=None,
                   help="sample count for numeric laws "
                   f"(default {DEFAULT_CONFIG.count})")
    p.add_argument("--tol", type=_flag_number(float), default=None,
                   help=f"numeric tolerance (default {DEFAULT_CONFIG.tol})")
    p.add_argument("--seed", type=_flag_number(int), default=None,
                   help="RNG seed (default TANBUN_SEED or "
                   f"{DEFAULT_CONFIG.seed})")
    p.add_argument("--depth", type=_flag_number(int), choices=(0, 1, 2),
                   default=None,
                   help="tangent nesting depth for square checks "
                   f"(default {DEFAULT_CONFIG.t_depth})")
    p.add_argument("--format", choices=("text", "json"), default="text")


@lru_cache(maxsize=1)     # parse_args leaves the parser as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="tanbun",
                     description="Chart-local differential-bundle checker")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check",
                             help="run the check suites on a bundle file "
                                  "or corpus entry")
    p_check.add_argument("target", help="bundle definition file or corpus "
                                        "entry name")
    p_check.add_argument("--suite",
                         choices=("all",) + SUITE_ORDER, default=None,
                         help="run the suite chain up to this suite")
    p_check.add_argument("--force", action="store_true",
                         help="keep running suites after a failure and "
                              "mark them untrusted")
    _add_config_flags(p_check)

    p_corpus = sub.add_parser("corpus", help="list or run built-in "
                                             "examples")
    p_corpus.add_argument("action", choices=("list", "run"))
    p_corpus.add_argument("name", nargs="?", default=None,
                          help="entry name; omit to run everything")
    p_corpus.add_argument("--verbose", action="store_true",
                          help="print full per-law reports")
    _add_config_flags(p_corpus)

    p_ax = sub.add_parser("axioms", help="verify the structural identity "
                                         "catalog")
    p_ax.add_argument("--dims", default="1,2,3",
                      help="comma-separated base dimensions")
    _add_config_flags(p_ax)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "check":
            report, code = run_check(args.target, args)
            print(report.to_json() if args.format == "json"
                  else report.to_text())
            return code
        if args.command == "corpus":
            return _cmd_corpus(args)
        return _cmd_axioms(args)
    except (UsageError, BundleFileError, UnknownCorpusEntry) as exc:
        print(f"tanbun: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
