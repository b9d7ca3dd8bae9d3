"""Guard: every public function, class and method of ``src/repro`` is
used by the program, not only by tests.

Each stage has one implementation, the one the jobs run. A public
module-level function or class of any module under ``src/repro``, and a
public method of such a class, must be referenced somewhere in ``src/``,
``jobs/``, ``benchmarks/`` or ``perfbench/`` outside its own definition;
a reference oracle or helper that only tests need lives in ``tests/``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GUARDED = sorted((ROOT / "src" / "repro").rglob("*.py"))
USERS = ("src", "jobs", "benchmarks", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def _owned(stmt: ast.stmt):
    """(node, qualified name of the definition it is in, or None) for a
    top-level statement and, inside a class, for each part of it."""
    if not isinstance(stmt, DEFS):
        yield stmt, None
    elif isinstance(stmt, ast.ClassDef):
        for s in stmt.body:
            name = f"{stmt.name}.{s.name}" if isinstance(s, DEFS) else stmt.name
            yield s, name
        for node in (*stmt.decorator_list, *stmt.bases, *stmt.keywords):
            yield node, stmt.name
    else:
        yield stmt, stmt.name


def _public_defs(path: Path) -> list[str]:
    """Qualified names: ``f``, ``C`` and ``C.method``."""
    out = []
    for s in ast.parse(path.read_text()).body:
        if isinstance(s, DEFS) and not s.name.startswith("_"):
            out.append(s.name)
            if isinstance(s, ast.ClassDef):
                out += [
                    f"{s.name}.{m.name}"
                    for m in s.body
                    if isinstance(m, DEFS) and not m.name.startswith("_")
                ]
    return out


@pytest.fixture(scope="module")
def refs() -> set[tuple[Path, str, str | None]]:
    """(file, referenced name, enclosing definition's qualified name or None)."""
    refs = set()
    for d in USERS:
        for path in (ROOT / d).rglob("*.py"):
            for stmt in ast.parse(path.read_text()).body:
                for node, owner in _owned(stmt):
                    refs |= {(path, name, owner) for name in _names(node)}
    return refs


def test_guard_sees_the_stage_modules():
    assert {p.parent.name for p in GUARDED} == {
        "repro", "baselines", "bench", "chartsim", "core", "index", "lake"
    }
    names = {n for p in GUARDED for n in _public_defs(p)}
    assert {"IntervalTree", "LSHIndex", "repository_df", "ranked_topk", "top_k"} <= names
    assert {"LSHIndex.query", "DatasetEncoder.encode_table", "TableEncoding.n_cols"} <= names


def _unused(path: Path, refs) -> list[str]:
    # a definition's references to itself (recursion, a class named in
    # its own methods) do not count
    return [
        qual
        for qual in _public_defs(path)
        if not any(
            n == qual.rsplit(".", 1)[-1]
            and not (f == path and (o == qual or (o or "").startswith(qual + ".")))
            for f, n, o in refs
        )
    ]


def test_guard_flags_a_class_named_only_in_its_own_methods(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(
        "class C:\n"
        "    @classmethod\n"
        "    def make(cls):\n"
        "        return C()\n"
        "\n"
        "def user(c):\n"
        "    return c.make()\n"
    )
    refs = {
        (path, name, owner)
        for stmt in ast.parse(path.read_text()).body
        for node, owner in _owned(stmt)
        for name in _names(node)
    }
    assert _unused(path, refs) == ["C", "user"]


@pytest.mark.parametrize("path", GUARDED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_public_defs_used_outside_tests(path, refs):
    unused = _unused(path, refs)
    assert not unused, f"{path.name}: referenced only by tests, or not at all: {unused}"
