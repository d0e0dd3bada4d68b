"""Golden outputs: the JSON reports of the command line, frozen.

Each file under tests/golden/ is the `--format json` output of one
command with its timing fields (`seconds`, `wall_clock_s`) and the
input path (`source`) removed.  A change that moves a verdict, a
witness, a residual or a note fails here.  When a change of the JSON is
intended, rebuild the files with

    PYTHONPATH=src python3 tests/test_golden.py

and argue the change as one of behaviour.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from tanbun.cli import corpus_payload, main
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


def _freeze():
    from tanbun.corpus import corpus_run_all
    outputs = {name: _run(argv)[0] for name, (argv, _) in COMMANDS.items()}
    outputs["corpus_seed42"] = _corpus_seed42(
        {r.name: r for r in corpus_run_all(DEFAULT_CONFIG)})
    for name, report in outputs.items():
        path = os.path.join(GOLDEN, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
        print(path, file=sys.stderr)


if __name__ == "__main__":
    _freeze()
