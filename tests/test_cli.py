"""Command-line front end: bundle files, exit codes, report formats."""

import json
import random
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from tanbun.cli import BundleFileError, main, parse_bundle_file

LINE_DB = """\
# a one-line demo bundle
name = demo
base_dim = 1
total_dim = 2
base_box = -2..2
total_box = -2..2, -2..2
q = x0
xi = x0, 0
lambda = x0, 0, 0, x1
"""

LINE_VB = """\
name = demo-vector
kind = vector
base_dim = 1
total_dim = 2
base_box = -2..2
total_box = -2..2, -2..2
q = x0
xi = x0, 0
add = x0, x1 + x3
scalar = x1, x0*x2
"""


def _write(tmp_path, text, name="bundle.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _json_run(capsys, argv):
    code = main(argv)
    doc = json.loads(capsys.readouterr().out)
    return code, doc


# --------------------------------------------------------------------------
# Bundle files


def test_bundle_file_happy_path():
    spec, overrides = parse_bundle_file(LINE_DB, "demo")
    assert spec.name == "demo"
    assert spec.base_dim == 1 and spec.total_dim == 2
    assert overrides == {}


def test_bundle_file_carries_run_overrides():
    spec, overrides = parse_bundle_file(
        LINE_DB + "samples = 17\nseed = 3\nsuite = pre\n", "demo")
    assert overrides == {"samples": 17, "seed": 3, "suite": "pre"}


def test_unknown_key_is_rejected_with_its_line():
    with pytest.raises(BundleFileError) as exc:
        parse_bundle_file(LINE_DB + "colour = green\n", "demo")
    assert "demo:10" in str(exc.value)
    # a negation map was never read, so it is no key of a bundle file
    with pytest.raises(BundleFileError) as exc:
        parse_bundle_file(LINE_DB + "negate = x0, 7*x1 + 5\n", "demo")
    assert str(exc.value) == "demo:10: unknown key 'negate'"


def test_duplicate_key_is_rejected():
    with pytest.raises(BundleFileError) as exc:
        parse_bundle_file(LINE_DB + "q = x0\n", "demo")
    assert "duplicate" in str(exc.value)


def test_box_width_must_match_dimension():
    bad = LINE_DB.replace("total_box = -2..2, -2..2", "total_box = -2..2")
    with pytest.raises(BundleFileError):
        parse_bundle_file(bad, "demo")


def test_map_arity_must_match_dimension():
    bad = LINE_DB.replace("q = x0", "q = x0, x1")
    with pytest.raises(BundleFileError):
        parse_bundle_file(bad, "demo")


def test_expression_errors_point_into_the_file():
    bad = LINE_DB.replace("q = x0", "q = x0 +")
    with pytest.raises(BundleFileError) as exc:
        parse_bundle_file(bad, "demo")
    assert "demo:7" in str(exc.value)


# superscript digits ended in a traceback from int() or Fraction(); a
# fullwidth digit was read as its ASCII value.  Only ASCII 0-9 are digits.
@pytest.mark.parametrize("q, column", [
    ("x0²", 3), ("x0^²", 4), ("²*x0", 1), ("x１", 2), ("１*x0", 1),
])
def test_a_digit_that_is_not_ascii_is_a_bad_file(tmp_path, capsys, q,
                                                 column):
    path = _write(tmp_path, LINE_DB.replace("q = x0", f"q = {q}"))
    assert main(["check", path, "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"tanbun: error: {path}:7: unexpected character "
                   f"{q[column - 1]!r} (line 1, column {column})\n")


def test_vector_kind_requires_operations_and_forbids_a_lift():
    spec, _ = parse_bundle_file(LINE_VB, "demo")
    assert spec.scalar is not None
    with pytest.raises(BundleFileError):
        parse_bundle_file(LINE_VB + "lambda = x0, 0, 0, x1\n", "demo")
    with pytest.raises(BundleFileError):
        parse_bundle_file(LINE_VB.replace("scalar = x1, x0*x2\n", ""),
                          "demo")


def test_fraction_box_bounds_are_exact():
    spec, _ = parse_bundle_file(
        LINE_DB.replace("base_box = -2..2", "base_box = -1/3..1/3"),
        "demo")
    from fractions import Fraction
    assert spec.base_box.intervals[0][0] == Fraction(-1, 3)


# --------------------------------------------------------------------------
# check: exit codes and output


def test_check_passes_on_a_good_file(tmp_path, capsys):
    path = _write(tmp_path, LINE_DB)
    code = main(["check", path, "--samples", "30", "--suite", "rosicky"])
    out = capsys.readouterr().out
    assert code == 0
    assert "pass" in out


def test_a_fibre_affine_file_proves_rosicky_in_its_json(tmp_path, capsys):
    # the conjugated line bundle as a user file: the cone map (m, a) ->
    # (m, a - m^2) has the polynomial inverse (m, w + m^2)
    path = _write(tmp_path, LINE_DB.replace("xi = x0, 0", "xi = x0, x0^2")
                  .replace("lambda = x0, 0, 0, x1",
                           "lambda = x0, x0^2, 0, x1 - x0^2"))
    code = main(["check", path, "--samples", "30", "--format", "json"])
    suites = {s["id"]: s for s in json.loads(capsys.readouterr().out)
              ["suites"]}
    assert code == 0
    assert suites["rosicky"]["aggregate"] == "pass-exact"
    for law in suites["rosicky"]["laws"]:
        assert law["verdict"] == "pass-exact"
        assert law["provenance"]["inverse"] == "x0, x1 + x0^2"


def test_check_fails_on_the_counterexample(capsys):
    code = main(["check", "bump_counterexample", "--samples", "40",
                 "--suite", "rosicky"])
    out = capsys.readouterr().out
    assert code == 1
    assert "rank" in out


def test_vector_file_runs_the_full_chain(tmp_path, capsys):
    path = _write(tmp_path, LINE_VB)
    code, doc = _json_run(capsys, ["check", path, "--samples", "25",
                                   "--format", "json"])
    assert code == 0
    assert [s["id"] for s in doc["suites"]] == [
        "pre", "rosicky", "addition", "cockett", "strong", "combined",
        "split", "vb"]


def test_missing_file_is_a_usage_error(capsys):
    code = main(["check", "/no/such/file.txt"])
    err = capsys.readouterr().err
    assert code == 3
    assert "file.txt" in err


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 3


def test_bad_flag_value_is_a_usage_error(tmp_path, capsys, monkeypatch):
    # from a flag, a bundle-file key or TANBUN_SEED alike: exit 3 with one
    # error line, never a numpy traceback or a "tol": NaN in the JSON
    cases = [
        (["--depth", "9"], "", None),
        (["--samples", "-5"], "", None),
        (["--samples", "0"], "", None),
        (["--seed", "-1"], "", None),
        (["--tol", "nan"], "", None),
        (["--tol", "-1"], "", None),
        (["--tol", "inf"], "", None),
        ([], "samples = -5\n", None),
        ([], "tol = nan\n", None),
        ([], "negate = x0, 7*x1 + 5\n", None),
        ([], "", "-1"),
    ]
    for flags, keys, env_seed in cases:
        if env_seed is None:
            monkeypatch.delenv("TANBUN_SEED", raising=False)
        else:
            monkeypatch.setenv("TANBUN_SEED", env_seed)
        path = _write(tmp_path, LINE_DB + keys)
        case = (flags, keys, env_seed)
        assert main(["check", path, "--format", "json"] + flags) == 3, case
        out, err = capsys.readouterr()
        assert out == "", case
        assert err.startswith("tanbun: error: "), case
        assert err.count("\n") == 1, case


@pytest.mark.parametrize("line", ["samples = -5", "seed = -1", "tol = nan"])
def test_a_bad_run_setting_in_a_file_names_its_line(tmp_path, capsys, line):
    path = _write(tmp_path, LINE_DB + line + "\n")
    lineno = LINE_DB.count("\n") + 1
    assert main(["check", path, "--format", "json"]) == 3
    out, err = capsys.readouterr()
    key = line.split()[0]
    assert out == ""
    assert err.startswith(f"tanbun: error: {path}:{lineno}: {key} must be ")
    assert err.count("\n") == 1


def test_the_smallest_valid_run_settings_are_accepted(tmp_path, capsys):
    path = _write(tmp_path, LINE_DB)
    code, doc = _json_run(capsys, ["check", path, "--samples", "1",
                                   "--seed", "0", "--tol", "1e-300",
                                   "--format", "json"])
    assert code == 0 and (doc["samples"], doc["seed"]) == (1, 0)


# int(), float() and Fraction() read any Unicode digit and underscores, so
# `samples = ２０` ran with 20 samples and `--seed 1_0` with seed 10.  Each
# number a file, a flag or TANBUN_SEED gives is ASCII without underscores.
_SUPERSCRIPT = "\u2070\u00b9\u00b2\u00b3\u2074\u2075\u2076\u2077\u2078\u2079"
NOT_ASCII = {
    "fullwidth": lambda n: chr(0xFF10 + n),
    "arabic-indic": lambda n: chr(0x0660 + n),
    "superscript": lambda n: _SUPERSCRIPT[n],
    "underscore": lambda n: f"0_{n}",
}
# (key, ASCII value with one digit braced, line), the line None when the
# key is appended to LINE_DB
NUMBER_FIELDS = [
    ("base_dim", "{1}", 3), ("total_dim", "{2}", 4),
    ("base_box", "-{2}..2", 5), ("total_box", "-2..2, -2..{2}", 6),
    ("samples", "2{0}", None), ("seed", "{7}", None), ("depth", "{1}", None),
    ("tol", "1e-{9}", None),
]


def _spelled(template, variant):
    digit = int(template[template.index("{") + 1])
    return template.replace("{%d}" % digit, NOT_ASCII[variant](digit))


@pytest.mark.parametrize("variant", sorted(NOT_ASCII))
@pytest.mark.parametrize("key, template, line", NUMBER_FIELDS)
def test_a_number_in_a_file_is_ascii(tmp_path, capsys, key, template, line,
                                     variant):
    value = _spelled(template, variant)
    if line is None:
        text, line = LINE_DB + f"{key} = {value}\n", LINE_DB.count("\n") + 1
    else:
        old = f"{key} = " + template.replace("{", "").replace("}", "")
        assert old in LINE_DB
        text = LINE_DB.replace(old, f"{key} = {value}")
    path = _write(tmp_path, text)
    assert main(["check", path, "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"tanbun: error: {path}:{line}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("variant", sorted(NOT_ASCII))
@pytest.mark.parametrize("flag, template", [
    ("--samples", "2{0}"), ("--seed", "{7}"), ("--depth", "{0}"),
    ("--tol", "1e-{9}"), ("TANBUN_SEED", "{7}"),
])
def test_a_number_in_a_flag_is_ascii(tmp_path, capsys, monkeypatch, flag,
                                     template, variant):
    value = _spelled(template, variant)
    argv = ["check", _write(tmp_path, LINE_DB), "--format", "json"]
    if flag == "TANBUN_SEED":
        monkeypatch.setenv(flag, value)
        named = "TANBUN_SEED must be an integer"
    else:
        monkeypatch.delenv("TANBUN_SEED", raising=False)
        argv += [flag, value]
        named = f"argument {flag}: invalid "
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"tanbun: error: {named}")
    assert err.count("\n") == 1


# --------------------------------------------------------------------------
# JSON reports


def test_json_report_is_deterministic(tmp_path, capsys):
    path = _write(tmp_path, LINE_DB)
    argv = ["check", path, "--samples", "30", "--format", "json",
            "--suite", "rosicky"]
    code1, doc1 = _json_run(capsys, argv)
    code2, doc2 = _json_run(capsys, argv)
    assert code1 == code2 == 0
    doc1.pop("wall_clock_s"), doc2.pop("wall_clock_s")
    assert doc1 == doc2


def test_a_lift_that_is_nan_on_part_of_its_box_ends_in_a_report(tmp_path):
    # exp(1000*x1) overflows above x1 = 0.71, where the lift is inf - inf
    path = _write(tmp_path, LINE_DB.replace(
        "lambda = x0, 0, 0, x1",
        "lambda = x0, 0, 0, x1 + x1^3/4 + exp(1000*x1) - exp(999*x1)*exp(x1)"
    ) + "samples = 20\ndepth = 1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "tanbun.cli", "check", path,
         "--format", "json"], capture_output=True, text=True)
    assert proc.returncode in (1, 2)
    assert proc.stderr == ""    # no traceback, and no numpy warning
    assert json.loads(proc.stdout)["aggregate"] in ("fail", "unknown")


@pytest.mark.filterwarnings("error")
def test_an_overflowing_scalar_action_warns_of_nothing(tmp_path, capsys):
    # exp(1000*x1) overflows on most of the box, so the gaps of the module
    # laws are inf - inf there: sampled_law judges them, and nothing warns
    path = _write(tmp_path, _edited(LINE_VB, "scalar = x1, x0*x2 + "
                                    "exp(1000*x1)"))
    code, doc = _json_run(capsys, ["check", path, "--samples", "10",
                                   "--depth", "0", "--format", "json"])
    assert code == 1 and doc["aggregate"] == "fail"


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_a_scalar_action_that_is_nan_everywhere_reads_unknown(tmp_path,
                                                              capsys):
    # exp(1000*u) - exp(999*u)*exp(u) is 0 in exact arithmetic and inf - inf
    # in floats for u >= 1: no sample refutes a module law, so each law the
    # NaN reaches reads unknown at a sample, and the JSON holds no NaN
    nan = "exp(1000*(x2^2 + 1)) - exp(999*(x2^2 + 1))*exp(x2^2 + 1)"
    path = _write(tmp_path, LINE_VB.replace(
        "scalar = x1, x0*x2", f"scalar = x1, x0*x2 + {nan}"))
    code = main(["check", path, "--format", "json"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    assert code == 2 and doc["aggregate"] == "unknown"
    laws = {l["law"]: l for l in doc["suites"][0]["laws"]}
    assert laws.pop("scalar-base")["verdict"] == "pass"   # q sees no NaN
    assert len(laws) == 5
    for law in laws.values():
        assert law["verdict"] == "unknown", law["law"]
        assert law["note"] == "residual is not a number"
        assert law["witness"] and law["max_residual"] == 0.0


def test_a_nan_in_equal_maps_reads_unknown_with_its_sample(tmp_path, capsys):
    # pre-2 and pre-4 compare maps built from the lift through equal_maps,
    # whose samples all reach inf - inf: the law names the NaN sample as
    # (point, lhs, rhs) as well as in its note, and the JSON writes the
    # NaN as a string
    nan = "exp(1000*(x1^2 + 1)) - exp(999*(x1^2 + 1))*exp(x1^2 + 1)"
    path = _write(tmp_path, LINE_DB.replace(
        "lambda = x0, 0, 0, x1", f"lambda = x0, 0, 0, x1 + {nan}")
        + "samples = 20\ndepth = 1\n")
    code = main(["check", path, "--suite", "pre", "--format", "json"])
    doc = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    laws = {l["law"]: l for l in doc["suites"][0]["laws"]}
    for law_id in ("pre-2", "pre-4"):
        law = laws[law_id]
        assert law["verdict"] == "unknown", law_id
        assert law["note"].startswith("residual is NaN at sample"), law_id
        point, lhs, rhs = law["witness"]
        assert law["note"].endswith(f"{point}"), law_id
        assert "nan" in lhs + rhs, law_id
    assert code == 2 and doc["aggregate"] == "unknown"


def test_json_report_structure(tmp_path, capsys):
    path = _write(tmp_path, LINE_DB)
    code, doc = _json_run(capsys, ["check", path, "--samples", "30",
                                   "--suite", "pre", "--format", "json"])
    assert doc["schema"] == "tanbun-report/1"
    assert doc["source"].endswith("bundle.txt")
    assert len(doc["digest"]) == 64
    assert doc["samples"] == 30
    laws = doc["suites"][0]["laws"]
    assert [l["law"] for l in laws] == ["pre-1", "pre-2", "pre-3", "pre-4"]


def test_file_overrides_lose_to_flags(tmp_path, capsys):
    path = _write(tmp_path, LINE_DB + "samples = 99\nseed = 17\n")
    code, doc = _json_run(capsys, ["check", path, "--samples", "30",
                                   "--suite", "pre", "--format", "json"])
    assert doc["samples"] == 30  # flag wins
    assert doc["seed"] == 17    # file override survives


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("TANBUN_SEED", "123")
    path = _write(tmp_path, LINE_DB)
    code, doc = _json_run(capsys, ["check", path, "--samples", "25",
                                   "--suite", "pre", "--format", "json"])
    assert doc["seed"] == 123
    code, doc = _json_run(capsys, ["check", path, "--samples", "25",
                                   "--seed", "9", "--suite", "pre",
                                   "--format", "json"])
    assert doc["seed"] == 9


def test_force_marks_later_suites_untrusted(capsys):
    code, doc = _json_run(capsys, ["check", "bump_counterexample",
                                   "--samples", "30", "--force",
                                   "--format", "json"])
    assert code == 1
    trusted = {s["id"]: s["trusted"] for s in doc["suites"]}
    assert trusted["pre"] and trusted["rosicky"]
    assert not any(trusted[k] for k in ("addition", "cockett", "strong",
                                        "combined", "split", "vb"))


# --------------------------------------------------------------------------
# corpus and axioms subcommands


def test_corpus_list_prints_every_entry(capsys):
    assert main(["corpus", "list"]) == 0
    out = capsys.readouterr().out
    assert "trivial_1_1" in out and "mutant_flip_lift" in out


def test_corpus_run_exit_is_expectation_based(capsys):
    # An expected failure that does fail counts as success.
    assert main(["corpus", "run", "mutant_xi_shift"]) == 0
    out = capsys.readouterr().out
    assert "pre-3" in out


def test_corpus_run_unknown_name(capsys):
    assert main(["corpus", "run", "nonexistent"]) == 3


def test_axioms_subcommand(capsys):
    assert main(["axioms", "--dims", "1"]) == 0
    out = capsys.readouterr().out
    assert "flip-lift" in out


def test_installed_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tanbun.cli", "corpus", "list"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "conjugated_1_1" in proc.stdout


# --------------------------------------------------------------------------
# A suite that raises ends in a report


CUBIC_LIFT = (Path(__file__).resolve().parent / "golden"
              / "cubic_lift.txt").read_text()


def test_the_bent_lift_runs_the_witness_search_in_every_square(
        tmp_path, capsys):
    # the lift x1 + 10 x1^3 bends enough that every square's rank scan
    # opens the search gate; cockett's top is an ImplicitMap, so this is
    # the search on a Newton-defined leg, which no bench workload reaches
    bent = CUBIC_LIFT.replace("(1/4)*x1^3", "10*x1^3")
    got, doc = _json_run(capsys, ["check", _write(tmp_path, bent),
                                  "--format", "json"])
    assert got == 0
    searches = {s["id"]: law["provenance"].get("search")
                for s in doc["suites"] for law in s["laws"]
                if law["law"] == "rank"}
    assert searches == {"rosicky": "ran", "cockett": "ran", "strong": "ran",
                        "combined": "ran"}


def _edited(text, line):
    key = line.split(" = ")[0]
    return "\n".join(line if old.startswith(key + " = ") else old
                     for old in text.splitlines()) + "\n"


@pytest.mark.parametrize("line, code, note", [
    ("xi = x0, 1/(x0-x0)", 2,
     "DenominatorNearZero: denominator near zero in 1/(x0 - x0)"),
    ("lambda = x0, 0, 0, x1 + 1/x1", 1,
     "ExprError: division by the zero constant"),
    # a Jacobian of q that is not finite reaches LAPACK in a fibre solve
    ("q = 1/x1 + exp(1000*x1)", 2,
     "LinAlgError: SVD did not converge in Linear Least Squares"),
])
def test_a_suite_that_raises_reads_unknown(tmp_path, capsys, line, code,
                                           note):
    got, doc = _json_run(capsys, ["check",
                                  _write(tmp_path, _edited(CUBIC_LIFT, line)),
                                  "--format", "json"])
    assert got == code
    raised = [law for s in doc["suites"] for law in s["laws"]
              if law["law"] == "suite" and law["verdict"] == "unknown"]
    assert note in {law["note"] for law in raised}


# value-level edits: poles, overflow, a bump near the registry's last
# order, and deleted lines
FUZZ_TERMS = ("1/(x0 - x0)", "1/x1", "1/x0", "exp(1000*x1)", "d9bump(x0)",
              "d12bump(x1)", "bump(x1)", "x1^9", "0", "exp(-x0^2)/x1",
              "sin(1/x0)")


def _mutant(rng, text=CUBIC_LIFT, keys=("q =", "xi =", "lambda =")) -> str:
    lines = text.splitlines()
    for _ in range(rng.randint(1, 2)):
        k = rng.choice([k for k, l in enumerate(lines)
                        if l.startswith(keys)])
        key, _, value = lines[k].partition(" = ")
        parts = value.split(", ")
        i = rng.randrange(len(parts))
        term = rng.choice(FUZZ_TERMS)
        if key == "xi":   # xi reads the base, which has one coordinate
            term = term.replace("x1", "x0")
        parts[i] = term if rng.random() < 0.5 else f"{parts[i]} + {term}"
        lines[k] = f"{key} = {', '.join(parts)}"
    if rng.random() < 0.2:
        del lines[rng.randrange(len(lines))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("text, argv", [
    # a Jacobian that is not finite would reach LAPACK, which prints its
    # complaint to standard output ahead of the JSON
    (_edited(CUBIC_LIFT, "q = 1/x1 + exp(1000*x1)"),
     ["--samples", "10", "--depth", "0"]),
    # vector bundle operations that raise in the module laws
    (_edited(LINE_VB, "add = x0, x1 + x3 + 1/(x0-x0)"), []),
], ids=["lapack-nonfinite-jacobian", "vector-add-raises"])
def test_named_files_end_in_json_on_stdout(tmp_path, capfd, text, argv):
    code = main(["check", _write(tmp_path, text), "--format", "json"] + argv)
    out = capfd.readouterr().out
    assert code in (0, 1, 2, 3)
    assert json.loads(out)["aggregate"]


def test_a_vector_bundle_whose_operations_raise_reads_unknown(tmp_path,
                                                              capsys):
    text = _edited(LINE_VB, "add = x0, x1 + x3 + 1/(x0-x0)")
    code, doc = _json_run(capsys, ["check", _write(tmp_path, text),
                                   "--format", "json"])
    assert code == 2 and doc["aggregate"] == "unknown"
    note = "DenominatorNearZero: denominator near zero in 1/(x0 - x0)"
    assert [s["id"] for s in doc["suites"]][0] == "pre"
    assert all(law["verdict"] == "unknown" and law["note"] == note
               for s in doc["suites"] for law in s["laws"])


def _exit_codes(tmp_path, capsys, texts) -> Counter:
    """Check each text as a file: every run ends in an exit code, with a
    JSON report on stdout unless the file is bad."""
    codes = Counter()
    for k, text in enumerate(texts):
        path = _write(tmp_path, text, name=f"mutant_{k}.txt")
        code = main(["check", path, "--samples", "10", "--depth", "0",
                     "--format", "json"])
        out = capsys.readouterr().out
        assert code in (0, 1, 2, 3), path
        if code < 3:
            assert json.loads(out)["aggregate"], path
        codes[code] += 1
    return codes


def test_mutated_bundle_files_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(2026)
    codes = _exit_codes(tmp_path, capsys, (_mutant(rng) for _ in range(150)))
    assert codes[3] < 50   # most mutants parse


def test_mutated_vector_files_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(2031)
    codes = _exit_codes(tmp_path, capsys, (
        _mutant(rng, LINE_VB, ("q =", "xi =", "add =", "scalar ="))
        for _ in range(60)))
    assert codes[3] < 20
