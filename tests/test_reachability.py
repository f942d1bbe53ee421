"""Every function in src/knorm is entered by a small CLI workflow, or is on
an allowlist that says why it stays.

A fresh interpreter runs the invocations below under sys.setprofile, from
the package import on, and records the (file, first line) of every code
object it enters. Each function definition in src/knorm is keyed the same
way: its first decorator's line if it has one, else its def line, which is
where Python starts a decorated function's code object.
"""

import ast
import json
import os
import subprocess
import sys

import numpy as np

import knorm

#: small invocations over all six subcommands, lp and hull balls, a kt4 Monte
#: Carlo volume, same-body compares and two refused inputs, with each exit
#: code; CSV stands for a small regression table
INVOCATIONS = (
    (0, "simulate-logistic --n 40 --reps 1 --eps 1"),
    (0, "simulate-coverage --n 30 --p 2 --reps 2 --eps 0.5,1 --mech l1,linf,kt"),
    (0, "simulate-coverage --n 30 --p 1 --reps 1 --eps 1 --mech kt --seed 2"),
    (0, "run-regression --csv CSV --response y --log-cols a --reps 1 --eps 1 --mech l1,linf,kt"),
    (0, "compare --a l1:3.125 --b linf:2 --m 2"),
    (0, "compare --a l2:1 --b l1:1 --m 3"),
    (0, "compare --a linf:1 --b l2:1 --m 5 --seed 3"),
    (0, "compare --a l1.5:1 --b l3:1 --m 2"),
    (0, "compare --a k2:1 --b l2:1 --m 2"),
    (0, "compare --a k3:1 --b linf:2 --m 3"),
    (0, "compare --a kt2:1 --b linf:2 --m 8"),
    (0, "compare --a kt4:1 --b linf:2 --m 19 --mc-samples 1000"),
    (0, "compare --a k2:2 --b k2:1 --m 2"),
    (0, "compare --a kt4:1 --b kt4:2 --m 19 --mc-samples 1000"),
    (0, "sample --ball l1 --reps 3"),
    (0, "sample --ball l2 --reps 3"),
    (0, "sample --ball linf --reps 3"),
    (0, "sample --ball l1.5 --reps 3"),
    (0, "sample --ball k2 --reps 3"),
    (0, "sample --ball k3 --reps 3"),
    (0, "sample --ball kt5 --reps 3"),
    (0, "diagnostics --mech l1,l2,linf,l1.5,k2,k3,kt1,kt4 --draws 50"),
    (2, "compare --a l1:1 --b linf:1 --m 2 --eps 0"),
    (2, "sample --ball k2 --reps 3 --seed -1"),
)

#: the functions no invocation enters, each with the reason it stays
UNREACHED = {
    "sampling.sample_k_mech_rejection": "perfbench/layers.py times it; spans.py rebinds it",
    "sampling.sample_l2_mech": "perfbench/spans.py rebinds harness's name",
    "sampling.sample_linf_mech": "perfbench/spans.py rebinds harness's and linreg's names",
    "geometry.NormBall.member_many": "perfbench/layers.py times it; spans.py rebinds it",
    "geometry._hull_member_many": "NormBall.member_many's kernel for a hull",
    "linreg.sanitize_statistic": "perfbench/layers.py times it; spans.py rebinds it",
    "linreg.dp_estimate": "perfbench/layers.py times it; spans.py rebinds it",
    "ordering.gamma_quantile": "perfbench/layers.py imports it",
    "ordering.concentration_radius": "perfbench/layers.py times it",
    "ordering.depth": "perfbench/layers.py times it",
    "geometry.quadratic_pair_sensitivity": "the k2 sensitivity that decides the k2 verdicts",
    "geometry.quadratic_pair_sensitivity.corner_norm": "quadratic_pair_sensitivity's objective",
    "ordering.conditional_variance":
        "the paper's third criterion, which test_c06 checks; ROADMAP item 1 wires it in",
}

PROFILE = """
import contextlib, io, json, os, sys
entered = set()

def record(frame, event, arg):
    if event == "call":
        entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

sys.setprofile(record)
import knorm
from knorm.cli import main
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        codes.append(main(argv))
sys.setprofile(None)
root = os.path.dirname(os.path.realpath(knorm.__file__))
entered = sorted({(os.path.realpath(f), line) for f, line in entered
                  if os.path.dirname(os.path.realpath(f)) == root})
print(json.dumps({"codes": codes, "entered": entered}))
"""


def function_definitions(package_dir):
    """{(real path, first line): "module.qualified.name"} of every function
    definition in the package's modules, nested ones and methods included."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(path, first)] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for name in sorted(os.listdir(package_dir)):
        if name.endswith(".py"):
            path = os.path.realpath(os.path.join(package_dir, name))
            with open(path) as fh:
                tree = ast.parse(fh.read())
            visit(tree, path, "" if name == "__init__.py" else name[:-3] + ".")
    return found


def test_cli_workflows_enter_every_function_off_the_allowlist(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(1.0, 5.0, (60, 2))
    y = x @ [1.0, -0.5] + rng.standard_normal(60)
    csv_path = tmp_path / "table.csv"
    csv_path.write_text("a,b,y\n" + "".join(f"{a},{b},{c}\n" for (a, b), c
                                            in zip(x.tolist(), y.tolist())))
    argvs = [[str(csv_path) if tok == "CSV" else tok for tok in line.split()]
             for _, line in INVOCATIONS]
    package_dir = os.path.dirname(os.path.realpath(knorm.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package_dir))
    run = subprocess.run([sys.executable, "-c", PROFILE, json.dumps(argvs)], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout)
    assert result["codes"] == [code for code, _ in INVOCATIONS]
    entered = {tuple(key) for key in result["entered"]}
    definitions = function_definitions(package_dir)
    unreached = {name for key, name in definitions.items() if key not in entered}
    assert unreached == set(UNREACHED)
