"""tools/compare_outputs.py on small trees: numbers may move, nothing else may.

The script runs as a command, as it is used, on two directories built in
a temporary folder; it must read nothing beyond the standard library.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"

BASE = {
    "analyze/x.json.txt": 'exit: 0\n{"lambda": 0.5, "zero": 1e-17, "n": 3}\n',
    "analyze/x.txt": "verdict: genuine\n  p window: [0.25, 1] (nonempty)\n",
}


def _tree(root: Path, files: dict[str, str]) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def _compare(tmp_path: Path, changed: dict[str, str | None]) -> tuple[int, str]:
    other = {**BASE, **changed}
    a = _tree(tmp_path / "a", BASE)
    b = _tree(tmp_path / "b", {name: text for name, text in other.items() if text is not None})
    result = subprocess.run([sys.executable, str(SCRIPT), str(a), str(b)],
                            capture_output=True, text=True, timeout=60)
    assert result.stderr == ""
    return result.returncode, result.stdout


def test_identical_trees(tmp_path):
    code, out = _compare(tmp_path, {})
    assert code == 0
    assert out.splitlines() == ["identical: 2", "numbers only: 0",
                                "worst relative, |v| >= 1e-09: 0",
                                "worst absolute, |v| < 1e-09: 0", "other differences: 0"]


def test_moved_floats_report_their_worst_moves(tmp_path):
    code, out = _compare(tmp_path, {
        "analyze/x.json.txt": 'exit: 0\n{"lambda": 0.5000000000001, "zero": -2e-17, "n": 3}\n'})
    assert code == 0
    lines = out.splitlines()
    assert lines[:2] == ["identical: 1", "numbers only: 1"]
    assert lines[2] == ("worst relative, |v| >= 1e-09: 2e-13 "
                        "(analyze/x.json.txt: 0.5 -> 0.5000000000001)")
    assert lines[3] == "worst absolute, |v| < 1e-09: 3e-17 (analyze/x.json.txt: 1e-17 -> -2e-17)"
    assert lines[4] == "other differences: 0"


@pytest.mark.parametrize("name,text", [
    ("analyze/x.txt", "verdict: inconclusive\n  p window: [0.25, 1] (nonempty)\n"),
    ("analyze/x.txt", "verdict: genuine\n  p window: [0.25, 0.999999999] (nonempty)\n"),
    ("analyze/x.json.txt", 'exit: 65\n{"lambda": 0.5, "zero": 1e-17, "n": 3}\n'),
    ("analyze/x.json.txt", 'exit: 0\n{"lambda": 0.5, "zero": 1e-17, "n": 4}\n'),
    ("analyze/x.json.txt", 'exit: 0\n{"lambda": NaN, "zero": 1e-17, "n": 3}\n'),
], ids=["word", "float-to-integer", "exit-code", "integer", "nan"])
def test_any_other_change_fails(tmp_path, name, text):
    code, out = _compare(tmp_path, {name: text})
    assert code == 1
    assert out.splitlines()[-2:] == ["other differences: 1", f"  differs: {name}"]


def test_a_file_in_one_tree_only_fails(tmp_path):
    code, out = _compare(tmp_path, {"analyze/x.txt": None, "analyze/y.txt": "new\n"})
    assert code == 1
    assert out.splitlines()[-3:] == ["other differences: 2",
                                     f"  only in {tmp_path / 'a'}: analyze/x.txt",
                                     f"  only in {tmp_path / 'b'}: analyze/y.txt"]


def test_reads_the_standard_library_only():
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    modules = {alias.name.partition(".")[0] for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names}
    modules |= {node.module.partition(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    assert modules <= set(sys.stdlib_module_names), modules
