"""Golden outputs: the JSON reports of the command line, frozen.

Each file under tests/golden/ is the `--format json` output of one
command with its timing fields (`seconds`, `wall_clock_s`) and the
input path (`source`) removed.  A change that moves a verdict, a
witness, a residual or a note fails here.  When a change of the JSON is
intended, rebuild the files with

    PYTHONPATH=src python3 tests/test_golden.py

which prints, per file, the JSON paths that moved and flags a moved
verdict; argue the change as one of behaviour.
"""

import contextlib
import io
import json
import os
import sys
from collections import Counter

import numpy as np
import pytest

from tanbun import corpus
from tanbun.cli import corpus_payload, main
from tanbun.corpus import SUITE_ORDER
from tanbun.expr import DEFAULT_CONFIG

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
VOLATILE = {"seconds", "wall_clock_s", "source"}

# name -> (command line, exit code); every run pins its seed
COMMANDS = {
    "corpus_seed1": (["corpus", "run", "--seed", "1"], 0),
    "axioms": (["axioms", "--seed", "42"], 0),
    "check_bump_counterexample": (
        ["check", "bump_counterexample", "--seed", "42"], 1),
    # a lift that is not affine in the fibre, so the check goes through
    # the Newton-defined maps (ImplicitMap)
    "check_cubic_lift": (
        ["check", os.path.join(GOLDEN, "cubic_lift.txt"), "--seed", "42"],
        0),
}


def _stable(obj):
    if isinstance(obj, dict):
        return {k: _stable(v) for k, v in obj.items() if k not in VOLATILE}
    if isinstance(obj, list):
        return [_stable(v) for v in obj]
    return obj


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    return _stable(json.loads(out.getvalue())), code


def _golden(name):
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _corpus_seed42(results):
    return _stable(json.loads(json.dumps(
        corpus_payload(list(results.values()), DEFAULT_CONFIG))))


def test_corpus_at_seed_42_matches_its_golden_output(corpus):
    results, _ = corpus
    assert DEFAULT_CONFIG.seed == 42
    assert _corpus_seed42(results) == _golden("corpus_seed42")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_command_matches_its_golden_output(name):
    argv, want_code = COMMANDS[name]
    report, code = _run(argv)
    assert code == want_code
    assert report == _golden(name)


def _laws(doc):
    """Every law entry in a JSON report, at any depth."""
    if isinstance(doc, dict):
        if "law" in doc and "verdict" in doc:
            yield doc
        for v in doc.values():
            yield from _laws(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _laws(v)


@pytest.mark.parametrize("name", sorted(set(COMMANDS) | {"corpus_seed42"}))
def test_every_failure_in_a_golden_carries_a_witness(name):
    failed = [law for law in _laws(_golden(name)) if law["verdict"] == "fail"]
    assert [law["law"] for law in failed if not law["witness"]] == []


def _reports(doc):
    """The reports of a JSON document, each as its laws in the order they
    ran: a check's suites are a list, a corpus entry's a dict by id."""
    for report in doc.get("results", [doc]):
        suites = report.get("suites", [])
        if isinstance(suites, dict):
            rank = {sid: i for i, sid in enumerate(SUITE_ORDER)}
            suites = [suites[sid] for sid in sorted(
                suites, key=lambda sid: rank.get(sid, len(rank)))]
        yield list(_laws(report.get("laws", []))) + list(_laws(suites))


@pytest.mark.parametrize("name", sorted(set(COMMANDS) | {"corpus_seed42"}))
def test_every_judged_law_in_a_golden_names_its_evidence(name):
    # a law judged on samples names its seed and how many it drew; a law
    # derived from others names them, and they passed earlier in its report
    bare = []
    for laws in _reports(_golden(name)):
        passed = set()
        for law in laws:
            prov, judged = law["provenance"], law["verdict"] in (
                "pass", "fail", "unknown")
            sampled = "seed" in prov and ("count" in prov or "samples" in prov)
            derived = prov.get("derived_from")
            if derived is not None and not set(derived) <= passed \
                    or judged and not (sampled or derived):
                bare.append(law["law"])
            if law["verdict"] in ("pass", "pass-exact"):
                passed.add(law["law"])
    assert bare == []


def _one(f, *parts):
    """f at one point, the parts concatenated, by the batch path the laws
    take."""
    return f.eval_batch(np.concatenate(parts)[None])[0]


def _add_comm(w):
    add = corpus._TWISTED_ADD
    a, b = w[:4], w[4:8]
    return _one(add, a, b) - _one(add, b, a)


def _scalar_scalar_distrib(w):
    vb = corpus._quadratic_scalar_vb()
    r, s, a = w[:1], w[1:2], w[2:]
    return _one(vb.scalar, r + s, a) - _one(
        vb.add, _one(vb.scalar, r, a), _one(vb.scalar, s, a))


def _mor_add(w):
    mor = corpus._shift_morphism()
    add, a, b = mor.source.add, w[:2], w[2:]
    return _one(mor.f, _one(add, a, b)) - _one(
        add, _one(mor.f, a), _one(mor.f, b))


@pytest.mark.parametrize("seed", [42, 1])
@pytest.mark.parametrize("entry, suite, law_id, sides", [
    ("mutant_add_twisted", "addition", "add-comm", _add_comm),
    ("mutant_scalar_quadratic", "module", "scalar-scalar-distrib",
     _scalar_scalar_distrib),
    ("mutant_morphism_shift", "morphism", "mor-add", _mor_add),
])
def test_a_sampled_witness_replays_its_law(seed, entry, suite, law_id,
                                           sides):
    # witness[0] is all of the failing sample's inputs, flat: split into
    # the law's inputs and evaluated, it gives the law's max_residual
    result = next(r for r in _golden(f"corpus_seed{seed}")["results"]
                  if r["name"] == entry)
    law = next(e for e in result["suites"][suite]["laws"]
               if e["law"] == law_id)
    assert law["verdict"] == "fail" and len(law["witness"]) == 1
    gap = np.max(np.abs(sides(np.array(law["witness"][0]))))
    assert gap == law["max_residual"]


def test_moved_paths_collapse_list_indices_and_flag_verdicts():
    old = {"a": [{"verdict": "pass", "x": 1}, {"verdict": "pass", "x": 1}],
           "b": 1, "failed_laws": ["p"]}
    new = {"a": [{"verdict": "skipped", "x": 2}, {"verdict": "pass", "x": 2}],
           "c": 1, "failed_laws": ["p", "q"]}
    assert Counter(_moved(old, new)) == {
        ("$.a[*].verdict", "changed"): 1, ("$.a[*].x", "changed"): 2,
        ("$.b", "removed"): 1, ("$.c", "added"): 1,
        ("$.failed_laws", "changed"): 1}
    assert [p for p in ("$.a[*].verdict", "$.a[*].x", "$.failed_laws",
                        "$.r[*].expectation_met", "$.s.aggregate")
            if _is_loud(p)] == ["$.a[*].verdict", "$.failed_laws",
                                "$.r[*].expectation_met", "$.s.aggregate"]


# a moved value under one of these keys is a moved verdict
LOUD = {"verdict", "aggregate", "failed_laws", "expectation_met"}


def _moved(old, new, path="$"):
    """(path, how) for every value that differs between two JSON
    documents, with list indices collapsed to [*]; how is "changed",
    "added" or "removed"."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}"
            if key not in new:
                yield sub, "removed"
            elif key not in old:
                yield sub, "added"
            else:
                yield from _moved(old[key], new[key], sub)
    elif isinstance(old, list) and isinstance(new, list) \
            and len(old) == len(new):
        for a, b in zip(old, new):
            yield from _moved(a, b, path + "[*]")
    elif old != new:
        yield path, "changed"


def _is_loud(path: str) -> bool:
    return any(key.removesuffix("[*]") in LOUD for key in path.split("."))


def _freeze():
    """Rewrite every golden file, and print per file the JSON paths that
    moved with a count each; a moved verdict is flagged."""
    from tanbun.corpus import corpus_run_all
    outputs = {name: _run(argv)[0] for name, (argv, _) in COMMANDS.items()}
    outputs["corpus_seed42"] = _corpus_seed42(
        {r.name: r for r in corpus_run_all(DEFAULT_CONFIG)})
    loud = 0
    for name, report in sorted(outputs.items()):
        path = os.path.join(GOLDEN, f"{name}.json")
        old = _golden(name) if os.path.exists(path) else {}
        moved = Counter(_moved(old, report))
        print(f"{path}: {sum(moved.values())} values moved", file=sys.stderr)
        for (where, how), count in sorted(moved.items()):
            flag = "VERDICT MOVED  " if _is_loud(where) else ""
            loud += bool(flag)
            print(f"  {flag}{count:5d}  {how:<8} {where}", file=sys.stderr)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    if loud:
        print(f"!!! {loud} moved paths hold a verdict, an aggregate, "
              "failed laws or a met expectation: argue each one",
              file=sys.stderr)


if __name__ == "__main__":
    _freeze()
