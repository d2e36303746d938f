"""Command-line interface: every verb, the three output formats, exit
codes, and atomic --output writing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nablamu.cli import main

from conftest import FORMULA_CORPUS

# Child interpreters find the package in the source tree, installed or not.
SRC = Path(__file__).resolve().parent.parent / "src"

SYSTEM_SRC = "system\ninit: x\nx = or{p, dia x}\n"
NABLA_SRC = "system\ninit: x\nx = or{p, nab{x}}\n"
SPINE_SRC = "system\ninit: x\nx = nab{x}\n"
FRAME_SRC = (
    "states: s0 s1 s2\nedges: s0->s1 s1->s2\nlabels: p: s2\nroot: s0\n"
)
TREE_SRC = (
    "states: t0 t1 t2 leaf\nedges: t0->t1 t1->t2 t2->leaf\nlabels:\n"
    "root: t0\n"
)
SPINE_ANN = (
    "t0: x @ w.3+1; nab{x} @ w.3;\n"
    "t1: x @ w.2+1; nab{x} @ w.2;\n"
    "t2: x @ w+1; nab{x} @ w;\n"
    "leaf: x @ 1; nab{x} @ 0;\n"
)
GOOD_ANN = (
    "s0: x @ 3; or{dia x, p} @ 2; dia x @ 2;\n"
    "s1: x @ 2; or{dia x, p} @ 1; dia x @ 1;\n"
    "s2: x @ 1; or{dia x, p} @ 0; p @ 0;\n"
)
BAD_ANN = (
    "s0: x @ 1;\n"
    "s1: x @ 2; or{dia x, p} @ 1; dia x @ 1;\n"
    "s2: x @ 1; or{dia x, p} @ 0; p @ 0;\n"
)


@pytest.fixture
def files(tmp_path):
    def w(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)
    return {
        "sys": w("sys.mes", SYSTEM_SRC),
        "nab": w("nab.mes", NABLA_SRC),
        "spine": w("spine.mes", SPINE_SRC),
        "frame": w("chain3.frame", FRAME_SRC),
        "flat": w("flat.frame", "states: a\nedges: a->a\nlabels:\n"),
        "tree": w("t.frame", TREE_SRC),
        "ann": w("t.ann", SPINE_ANN),
        "good": w("good.ann", GOOD_ANN),
        "bad": w("bad.ann", BAD_ANN),
        "donor_frame": w("d.frame",
                         "states: t2 leaf\nedges: t2->leaf\nlabels:\n"
                         "root: t2\n"),
        "donor_ann": w("d.ann",
                       "t2: x @ w+1; nab{x} @ w;\n"
                       "leaf: x @ 1; nab{x} @ 0;\n"),
        "donor_small": w("small.ann",
                         "t2: nab{x} @ w;\n"
                         "leaf: x @ 1; nab{x} @ 0;\n"),
        "tmp": tmp_path,
    }


def run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as err:
        code = err.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -------------------------------------------------------------- formulas

def test_parse_prints_canonically(capsys):
    code, out, _ = run(capsys, ["parse", "--formula", "box p"])
    assert (code, out) == (0, "box p\n")


def test_parse_can_expand_sugar(capsys):
    code, out, _ = run(capsys, ["parse", "--formula", "box p", "--desugar"])
    assert (code, out) == (0, "nab{ff, p}\n")


def test_parse_json(capsys):
    code, out, _ = run(capsys,
                       ["parse", "--formula", "box p", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {"formula": "box p"}


def test_desugar_verb(capsys):
    code, out, _ = run(capsys, ["desugar", "--formula", "dia p"])
    assert (code, out) == (0, "and{nab{p}, nab{}}\n")
    for text in FORMULA_CORPUS:
        for fmt in ("text", "json"):
            verb = run(capsys, ["desugar", "--formula", text, "--format", fmt])
            flag = run(capsys, ["parse", "--formula", text, "--desugar",
                                "--format", fmt])
            assert verb == flag and verb[0] == 0, (text, fmt)


def test_parse_error_exits_2(capsys):
    code, _, err = run(capsys, ["parse", "--formula", "or{p,"])
    assert code == 2
    assert "expected a formula" in err


def test_too_deep_formula_exits_2_without_traceback():
    text = "or{q, " * 400 + "nab{x}" + "}" * 400
    proc = subprocess.run(
        [sys.executable, "-m", "nablamu", "parse", "--formula", text],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 2
    assert "nested too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr


# ------------------------------------------------------------ evaluation

def test_eval_system(capsys, files):
    code, out, _ = run(capsys, ["eval", "--system", files["sys"],
                                "--frame", files["frame"]])
    assert (code, out) == (0, "s0 s1 s2\n")


def test_eval_system_json(capsys, files):
    code, out, _ = run(capsys, ["eval", "--system", files["sys"],
                                "--frame", files["frame"],
                                "--format", "json"])
    assert json.loads(out) == {"states": ["s0", "s1", "s2"]}


def test_eval_formula(capsys, files):
    code, out, _ = run(capsys, ["eval", "--formula", "nab{}",
                                "--frame", files["frame"]])
    assert (code, out) == (0, "s0 s1\n")


def test_eval_requires_a_frame(capsys):
    code, _, err = run(capsys, ["eval", "--formula", "p"])
    assert code == 2
    assert "--frame" in err


def test_approx(capsys, files):
    code, out, _ = run(capsys, ["approx", "--system", files["sys"],
                                "--frame", files["frame"], "--stage", "2"])
    assert (code, out) == (0, "s1 s2\n")


def test_approx_with_explicit_formula(capsys, files):
    code, out, _ = run(capsys, ["approx", "--system", files["sys"],
                                "--frame", files["frame"], "--stage", "1",
                                "--psi", "nab{x}"])
    assert (code, out) == (0, "s1 s2\n")


def test_co_text_and_json(capsys, files):
    code, out, _ = run(capsys, ["co", "--system", files["sys"],
                                "--frame", files["frame"]])
    assert (code, out) == (0, "3\n")
    code, out, _ = run(capsys, ["co", "--system", files["sys"],
                                "--frame", files["frame"],
                                "--format", "json"])
    assert json.loads(out) == {"closure_ordinal": 3}


def test_frame_errors_name_the_edge_or_label_and_the_unknown_state(capsys, files):
    tmp = files["tmp"]
    for text, message in (
            ("states: s0\nedges: s0->a\n", "edge s0->a: unknown state 'a'"),
            ("states: s0\nlabels: p: s0 zz\n", "label p: unknown state 'zz'"),
            ("states: s0 s1\nedges: s1->c s0->b s0->c\n", "edge s0->b: unknown state 'b'")):
        (tmp / "bad.frame").write_text(text)
        code, out, err = run(capsys, ["co", "--system", files["sys"],
                                      "--frame", str(tmp / "bad.frame")])
        assert (code, out, err) == (2, "", f"error: {message}\n")


def test_co_rejects_dot(capsys, files):
    code, _, err = run(capsys, ["co", "--system", files["sys"],
                                "--frame", files["frame"],
                                "--format", "dot"])
    assert code == 2
    assert "--format dot is not available for 'co'" in err
    # every verb registered without DOT rejects it the same way
    system_frame = ["--system", files["sys"], "--frame", files["frame"]]
    tree_anns = ["--system", files["spine"], "--frame", files["tree"],
                 "--theta", files["ann"], "--phi", files["ann"]]
    verbs = {
        "parse": ["--formula", "p"],
        "desugar": ["--formula", "p"],
        "eval": ["--formula", "p", "--frame", files["frame"]],
        "approx": system_frame + ["--stage", "1"],
        "co": system_frame,
        "annotate": system_frame,
        "check-ann": system_frame + ["--ann", files["good"]],
        "conservative-check": system_frame + ["--ann", files["good"]],
        "pairs": tree_anns,
        "conjunctive": ["--system", files["nab"], "--random-count", "1"],
    }
    for verb, argv in verbs.items():
        code, out, err = run(capsys, [verb] + argv + ["--format", "dot"])
        assert (code, out) == (2, ""), verb
        assert err == f"error: --format dot is not available for '{verb}'\n"


# ------------------------------------------------------------ annotations

def test_annotate(capsys, files):
    code, out, _ = run(capsys, ["annotate", "--system", files["sys"],
                                "--frame", files["frame"]])
    assert code == 0
    assert out.splitlines() == [
        "s0: dia x @ 2; or{dia x, p} @ 2; x @ 3;",
        "s1: dia x @ 1; or{dia x, p} @ 1; x @ 2;",
        "s2: or{dia x, p} @ 0; p @ 0; x @ 1;",
    ]


def test_annotate_json(capsys, files):
    code, out, _ = run(capsys, ["annotate", "--system", files["sys"],
                                "--frame", files["frame"],
                                "--format", "json"])
    payload = json.loads(out)
    assert payload["s2"] == [
        {"formula": "or{dia x, p}", "ordinal": "0"},
        {"formula": "p", "ordinal": "0"},
        {"formula": "x", "ordinal": "1"},
    ]


def test_check_ann_reports_ok(capsys, files):
    code, out, _ = run(capsys, ["check-ann", "--system", files["sys"],
                                "--frame", files["frame"],
                                "--ann", files["good"]])
    assert (code, out) == (0, "OK (0 violations)\n")


def test_check_ann_reports_violations_and_still_exits_zero(capsys, files):
    code, out, _ = run(capsys, ["check-ann", "--system", files["sys"],
                                "--frame", files["frame"],
                                "--ann", files["bad"]])
    assert code == 0
    assert out.splitlines() == [
        "s0: D3.1-2 x @ 1 -- right-hand side is not annotated strictly"
        " below the variable",
        "FAIL (1 violations)",
    ]


def test_check_ann_json(capsys, files):
    code, out, _ = run(capsys, ["check-ann", "--system", files["sys"],
                                "--frame", files["frame"],
                                "--ann", files["bad"], "--format", "json"])
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["violations"][0] == {
        "state": "s0", "clause": "D3.1-2", "formula": "x", "ordinal": "1",
        "detail": "right-hand side is not annotated strictly below the"
                  " variable",
    }


def test_conservative_check(capsys, files):
    code, out, _ = run(capsys, ["conservative-check",
                                "--system", files["sys"],
                                "--frame", files["frame"],
                                "--ann", files["good"]])
    assert (code, out) == (0, "OK (0 violations)\n")
    code, out, _ = run(capsys, ["conservative-check",
                                "--system", files["sys"],
                                "--frame", files["frame"],
                                "--ann", files["bad"]])
    assert code == 0
    assert "s0: D3.2-2 x @ 1 -- least stage here is 3" in out
    assert out.splitlines()[-1] == "FAIL (3 violations)"


def test_relevant_sections(capsys, files):
    code, out, _ = run(capsys, ["relevant", "--system", files["nab"],
                                "--frame", files["frame"]])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# tree"
    assert "# theta" in lines and "# phi" in lines
    assert "s0: nab{x} @ 2; or{nab{x}, p} @ 2; x @ 3;" in lines


def test_relevant_dot_output(capsys, files):
    code, out, _ = run(capsys, ["relevant", "--system", files["nab"],
                                "--frame", files["frame"], "--format", "dot"])
    assert code == 0
    assert out.splitlines() == [
        "digraph annotated {",
        "  rankdir=TB;",
        '  "s0" [shape=doublecircle, label="s0\\nnab{x} @ 2 *'
        '\\nor{nab{x}, p} @ 2 *\\nx @ 3 *"];',
        '  "s1" [shape=ellipse, label="s1\\nnab{x} @ 1 *'
        '\\nor{nab{x}, p} @ 1 *\\nx @ 2 *"];',
        '  "s2" [shape=ellipse, label="s2\\nnab{x} @ 0 *'
        '\\nor{nab{x}, p} @ 0 *\\np @ 0 *\\nx @ 1 *"];',
        '  "s0" -> "s1";',
        '  "s1" -> "s2";',
        "}",
    ]


def test_relevant_needs_a_tree(capsys, files):
    code, _, err = run(capsys, ["relevant", "--system", files["spine"],
                                "--frame", files["flat"]])
    assert code == 1
    assert "tree frames" in err


# ---------------------------------------------------------- pairs / pump

def test_pairs_text(capsys, files):
    code, out, _ = run(capsys, ["pairs", "--system", files["spine"],
                                "--frame", files["tree"],
                                "--theta", files["ann"],
                                "--phi", files["ann"]])
    assert code == 0
    assert out.splitlines() == [
        "companion t0 @ w.3 -> bud t1 @ w.2 over nab{x}",
        "companion t1 @ w.2 -> bud t2 @ w over nab{x}",
        "companion t0 @ w.3 -> bud t2 @ w over nab{x}",
    ]


def test_pairs_json(capsys, files):
    code, out, _ = run(capsys, ["pairs", "--system", files["spine"],
                                "--frame", files["tree"],
                                "--theta", files["ann"],
                                "--phi", files["ann"],
                                "--format", "json"])
    payload = json.loads(out)
    assert payload["pairs"][0] == {
        "companion": "t0", "bud": "t1", "gamma": ["x"],
        "alpha": "w.3", "beta": "w.2",
    }
    assert len(payload["pairs"]) == 3


def test_pump_splices_and_prints_sections(capsys, files):
    code, out, _ = run(capsys, ["pump", "--system", files["spine"],
                                "--frame", files["tree"],
                                "--theta", files["ann"],
                                "--phi", files["ann"],
                                "--state", "t1",
                                "--donor-frame", files["donor_frame"],
                                "--donor-theta", files["donor_ann"],
                                "--donor-phi", files["donor_ann"]])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# pumped t1 with donor rooted t2 (3 states)"
    assert "states: t0 t2 leaf" in lines
    assert "t0: nab{x} @ w.3; x @ w.3+1;" in lines


def test_pump_rejects_profile_mismatch(capsys, files):
    code, _, err = run(capsys, ["pump", "--system", files["spine"],
                                "--frame", files["tree"],
                                "--theta", files["ann"],
                                "--phi", files["ann"],
                                "--state", "t1",
                                "--donor-frame", files["donor_frame"],
                                "--donor-theta", files["donor_small"],
                                "--donor-phi", files["donor_small"]])
    assert code == 1
    assert "donor root profile differs from the profile at t1" in err


def test_pump_names_an_unknown_state(capsys, files):
    code, out, err = run(capsys, ["pump", "--system", files["spine"],
                                  "--frame", files["tree"],
                                  "--theta", files["ann"],
                                  "--phi", files["ann"],
                                  "--state", "zz",
                                  "--donor-frame", files["donor_frame"],
                                  "--donor-theta", files["donor_ann"],
                                  "--donor-phi", files["donor_ann"]])
    assert (code, out, err) == (1, "", "error: unknown state 'zz'\n")


# ------------------------------------------------------------ conjunctive

def test_conjunctive_verb(capsys, files):
    code, out, _ = run(capsys, ["conjunctive", "--system", files["nab"],
                                "--random-count", "10"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "system"
    assert "x = or{nab{x}, p}" in lines
    assert lines[-1].startswith("# frames checked: ")
    assert lines[-1].endswith("; mismatches: 0")


def test_conjunctive_fresh_names_depend_on_the_input_alone(capsys, tmp_path):
    # the fresh names once followed the order of formula sets in memory,
    # which moved from run to run (_y1 was closed payload q or ff)
    path = tmp_path / "r93.mes"
    path.write_text("system\ninit: x0\nx0 = and{box x0, nab{q, x0}, p}\n"
                    "x1 = and{box x0, nab{}}\n")
    code, out, _ = run(capsys, ["conjunctive", "--system", str(path)])
    assert (code, out) == (0, (
        "system\n"
        "init: x0\n"
        "x0 = and{nab{_y1, x0}, nab{_y2, x0}, or{nab{_y0}, p}, or{nab{}, p}}\n"
        "x1 = and{nab{_y1, x0}, nab{}}\n"
        "_y0 = and{nab{_y0}, nab{}}\n"
        "_y1 = and{nab{_y0}, nab{}}\n"
        "_y2 = and{or{nab{_y0}, q}, or{nab{}, q}}\n"
        "# fresh variables:\n"
        "#   _y0: bottom variable (deadlock anchor)\n"
        "#   _y1: closed payload ff\n"
        "#   _y2: closed payload q\n"
        "# frames checked: 6372; mismatches: 0\n"))


def test_conjunctive_refuses_a_negative_random_count(capsys, files):
    code, out, err = run(capsys, ["conjunctive", "--system", files["nab"],
                                  "--random-count", "-5"])
    assert (code, out, err) == (1, "", "error: random_count must be non-negative, got -5\n")


# -------------------------------------------------------------- generators

def test_gen_chain(capsys):
    code, out, _ = run(capsys, ["gen", "chain", "--k", "3"])
    assert (code, out) == (0, "states: s0 s1 s2\nedges: s0->s1 s1->s2\n"
                              "root: s0\n")


def test_gen_czarnecki(capsys):
    code, out, _ = run(capsys, ["gen", "czarnecki", "--n", "1", "--k", "2"])
    assert (code, out) == (0, "states: c0 c1 c2\nedges: c0->c1 c1->c2\n"
                              "labels: p: c0 c1 c2\nroot: c0\n")


def test_gen_czarnecki_requires_both_parameters(capsys):
    code, _, err = run(capsys, ["gen", "czarnecki", "--k", "2"])
    assert code == 2
    assert "requires --n and --k" in err


def test_gen_random_seed_flag_matches_environment(capsys, files, monkeypatch):
    code, flagged, _ = run(capsys, ["gen", "random", "--size", "3",
                                    "--props", "p", "--seed", "5"])
    assert code == 0
    monkeypatch.setenv("NABLA_SEED", "5")
    code, from_env, _ = run(capsys, ["gen", "random", "--size", "3",
                                     "--props", "p"])
    assert code == 0
    assert flagged == from_env


def test_gen_random_refuses_a_duplicate_proposition(capsys):
    code, out, err = run(capsys, ["gen", "random", "--size", "3", "--props", "p,p"])
    assert (code, out, err) == (1, "", "error: duplicate proposition name 'p'\n")


def test_gen_dot_output(capsys):
    code, out, _ = run(capsys, ["gen", "chain", "--k", "2",
                                "--format", "dot"])
    assert code == 0
    assert out.startswith("digraph frame {")
    assert '"s0" -> "s1";' in out
    assert 'shape=doublecircle' in out


# ------------------------------------------------------------ plumbing

def test_missing_file_exits_2(capsys, files):
    code, _, err = run(capsys, ["co", "--system",
                                str(files["tmp"] / "nope.mes"),
                                "--frame", files["frame"]])
    assert code == 2
    assert "No such file" in err


def test_output_writes_file_atomically(capsys, files):
    dest = files["tmp"] / "result.txt"
    code, out, _ = run(capsys, ["co", "--system", files["sys"],
                                "--frame", files["frame"],
                                "--output", str(dest)])
    assert code == 0
    assert out == ""
    assert dest.read_text() == "3\n"
    leftovers = [p for p in os.listdir(files["tmp"])
                 if p.startswith("result.txt") and p != "result.txt"]
    assert leftovers == []


# the launcher pip writes for a [project.scripts] entry
SCRIPT_WRAPPER = """#!{python}
# -*- coding: utf-8 -*-
import re
import sys
from {module} import {func}
if __name__ == '__main__':
    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])
    sys.exit({func}())
"""


def test_console_script_is_installed(files):
    # The [project.scripts] entry of pyproject.toml, run through the
    # wrapper an install would put on PATH, against the source tree.
    # Read line by line: tomllib is Python >= 3.11 only, and the package
    # supports 3.10.
    root = Path(__file__).resolve().parent.parent
    section, scripts = None, {}
    for line in (root / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]" and "=" in line:
            name, value = line.split("=", 1)
            scripts[name.strip()] = value.strip().strip('"')
    module, func = scripts["nablamu"].split(":")
    bindir = files["tmp"] / "bin"
    bindir.mkdir()
    wrapper = bindir / "nablamu"
    wrapper.write_text(SCRIPT_WRAPPER.format(
        python=sys.executable, module=module, func=func))
    wrapper.chmod(0o755)
    env = dict(os.environ,
               PATH=os.pathsep.join([str(bindir), os.environ.get("PATH", "")]),
               PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        ["nablamu", "co", "--system", files["sys"],
         "--frame", files["frame"]],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_module_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "nablamu", "co", "--system", files["sys"],
         "--frame", files["frame"]],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0
    assert proc.stdout == "3\n"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    probe = ("import sys, nablamu.cli; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
