"""Guard: every public function and class of ``src/repro`` is used by
the program, not only by tests.

Each stage has one implementation, the one the jobs run. A public
module-level function or class of any module under ``src/repro`` must be
referenced somewhere in ``src/``, ``jobs/``, ``benchmarks/`` or
``perfbench/`` outside its own definition; a reference oracle that only
tests need lives in ``tests/``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GUARDED = sorted((ROOT / "src" / "repro").rglob("*.py"))
USERS = ("src", "jobs", "benchmarks", "perfbench")


def _names(node: ast.AST) -> set[str]:
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _public_defs(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    return [
        s.name
        for s in tree.body
        if isinstance(s, (ast.FunctionDef, ast.ClassDef)) and not s.name.startswith("_")
    ]


@pytest.fixture(scope="module")
def refs() -> set[tuple[Path, str, str | None]]:
    """(file, referenced name, enclosing top-level definition or None)."""
    refs = set()
    for d in USERS:
        for path in (ROOT / d).rglob("*.py"):
            for stmt in ast.parse(path.read_text()).body:
                owner = (
                    stmt.name
                    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    else None
                )
                refs |= {(path, name, owner) for name in _names(stmt)}
    return refs


def test_guard_sees_the_stage_modules():
    assert {p.parent.name for p in GUARDED} == {
        "repro", "baselines", "bench", "chartsim", "core", "index", "lake"
    }
    names = {n for p in GUARDED for n in _public_defs(p)}
    assert {"IntervalTree", "LSHIndex", "repository_df", "ranked_topk", "top_k"} <= names


@pytest.mark.parametrize("path", GUARDED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_public_defs_used_outside_tests(path, refs):
    unused = [
        name
        for name in _public_defs(path)
        # a definition's references to itself (recursion) do not count
        if not any(n == name and not (f == path and o == name) for f, n, o in refs)
    ]
    assert not unused, f"{path.name}: referenced only by tests, or not at all: {unused}"
