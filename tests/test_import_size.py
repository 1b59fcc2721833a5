"""The benchmark's ``setup_s`` is mostly a fresh compile of the library
modules its worker loads, so their size is a cost. This guard shows growth
in tier-1 before the benchmark shows it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# AST nodes of radograph/__init__.py and the modules perfbench/worker.py
# loads, pinned at the measured count of the last change that lowered it;
# raising it needs a reason in CHANGES.md
CEILING = 13_681


def _worker_modules():
    tree = ast.parse((ROOT / "perfbench" / "worker.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "MODULES" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/worker.py names no MODULES")


def test_loaded_modules_stay_under_the_ast_ceiling():
    names = ["__init__", *_worker_modules()]
    assert len(names) == 10
    src = ROOT / "src" / "radograph"
    count = sum(sum(1 for _ in ast.walk(ast.parse((src / f"{name}.py").read_text())))
                for name in names)
    assert count <= CEILING
