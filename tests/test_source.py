"""Checks on the package's source text."""
import ast
from pathlib import Path

import gnumsd

SOURCES = sorted(Path(gnumsd.__file__).parent.glob("*.py"))


def test_no_star_args_of_a_generator():
    # f(*(x for x in xs)) builds its argument tuple longer and shrinks it,
    # which leaves one more tuple per call on CPython's free list (~128 KB
    # resident in a loop); star-args of a list do not.
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                for arg in node.args:
                    if isinstance(arg, ast.Starred) and isinstance(arg.value, ast.GeneratorExp):
                        found.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 10
    assert found == []


def test_one_zero_weight_message():
    # The refusal of a setting too weak to normalise is worded in one place,
    # whichever call refuses it.  Docstrings and comments do not count.
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node, clean=False) is not None
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and id(node) not in docstrings:
                if isinstance(node.value, str) and "codespace weight" in node.value:
                    found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("engine.py:"), found
