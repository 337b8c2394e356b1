"""Every threshold is defined once, in ``psokit.tolerances``."""

import ast
import re
from pathlib import Path

import psokit

SOURCES = sorted(p for p in Path(psokit.__file__).parent.glob("*.py")
                 if p.name != "tolerances.py")
THRESHOLD_NAME = re.compile(r"(.*_TOL|PASS_.*|FAIL_THRESHOLD|CONTRACTION_BOUND|TAIL_CUTOFF)$")


def test_no_module_but_the_table_holds_a_small_float_literal():
    found = [f"{path.name}:{node.lineno}: {node.value!r}"
             for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and 0 < abs(node.value) <= 1e-2]
    assert SOURCES and found == []


def test_no_module_but_the_table_assigns_a_threshold_name():
    found = [f"{path.name}:{node.lineno}: {target.id}"
             for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
             if isinstance(target, ast.Name) and THRESHOLD_NAME.match(target.id)]
    assert found == []
