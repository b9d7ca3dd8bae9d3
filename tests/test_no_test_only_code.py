"""Guard: every public definition of ``src/repro``, and every setting it
takes, is used by the program, not only by tests.

Each stage has one implementation, the one the jobs run. The program is
the code under ``src/``, ``jobs/``, ``benchmarks/`` and ``perfbench/``.

* A public module-level function or class of any module under
  ``src/repro`` must be referenced by the program outside its own
  definition, by a reference that resolves to it: an import of it, an
  attribute of its module (``synth_data.lineitem``), or a name in its own
  module. A public method of such a class must be named as an attribute
  somewhere in the program outside its own definition.
* A defaulted parameter of a public function, method or constructor
  (``__init__``, or a dataclass field) must be passed, by keyword or by
  position, at some program call site. A setting with one value is a
  constant, not a parameter. This also holds for the jobs' shared
  prologue ``jobs/_common.py``, which the jobs import as ``_common``.
  The configuration dataclasses in :data:`CONFIGS` are exempt: they hold
  the paper's hyper-parameters (Sec. VII-B), which Table VII sweeps.

A reference oracle or helper that only tests need lives in ``tests/``.
"""
import ast
from dataclasses import dataclass
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GUARDED = sorted((ROOT / "src" / "repro").rglob("*.py"))
#: modules whose defaulted parameters some program call must pass
SETTINGS_GUARDED = GUARDED + [ROOT / "jobs" / "_common.py"]
USERS = ("src", "jobs", "benchmarks", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
CONFIGS = {"FCMConfig", "ChartConfig", "BenchmarkConfig"}
#: passed positionally or by keyword at a call with ``*args`` or ``**kw``
ANY = None


def _module(path: Path, root: Path = ROOT) -> str | None:
    """Dotted module name of a file under ``src/`` (``repro.core.fcm``),
    the bare name of a job file (jobs import ``_common`` from their own
    directory); None for a file elsewhere."""
    if path.parent == root / "jobs":
        return path.stem
    if root / "src" not in path.parents:
        return None
    parts = path.relative_to(root / "src").with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _aliases(tree: ast.AST, module: str) -> dict[str, str]:
    """Local name -> dotted target of every import in a file, at any depth."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    out[a.asname] = a.name
                else:
                    top = a.name.split(".", 1)[0]
                    out[top] = top
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                pkg = module.split(".")[: -node.level]
                base = ".".join(pkg + ([base] if base else []))
            for a in node.names:
                out[a.asname or a.name] = f"{base}.{a.name}"
    return out


@dataclass
class Source:
    """One program file: its module name, its imports and top-level names."""

    path: Path
    tree: ast.Module
    module: str | None
    aliases: dict[str, str]
    top: set[str]

    @classmethod
    def read(cls, path: Path, root: Path = ROOT) -> "Source":
        tree = ast.parse(path.read_text())
        module = _module(path, root)
        top = {s.name for s in tree.body if isinstance(s, DEFS)}
        return cls(path, tree, module, _aliases(tree, module or ""), top)

    def target(self, node: ast.AST) -> str | None:
        """The dotted definition a name or attribute chain resolves to."""
        if isinstance(node, ast.Name):
            if node.id in self.aliases:
                return self.aliases[node.id]
            if self.module and node.id in self.top:
                return f"{self.module}.{node.id}"
        elif isinstance(node, ast.Attribute):
            base = self.target(node.value)
            return f"{base}.{node.attr}" if base else None
        return None


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


def _walk_owned(src: Source):
    for stmt in src.tree.body:
        for node, owner in _owned(stmt):
            for n in ast.walk(node):
                yield n, owner


def _refs(src: Source) -> set[tuple[Path, tuple[str, str], str | None]]:
    """(file, reference, enclosing definition's qualified name or None).

    A reference is ``("def", dotted target)`` for a name, attribute chain
    or import that resolves to a definition, and ``("attr", name)`` for
    every attribute access (how a method is reached)."""
    out = set()
    for n, owner in _walk_owned(src):
        keys = []
        if isinstance(n, (ast.Name, ast.Attribute)):
            target = src.target(n)
            if target:
                keys.append(("def", target))
            if isinstance(n, ast.Attribute):
                keys.append(("attr", n.attr))
        elif isinstance(n, ast.ImportFrom):
            keys += [("def", t) for t in _aliases(n, src.module or "").values()]
        out |= {(src.path, k, owner) for k in keys}
    return out


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
def program() -> list[Source]:
    return [Source.read(p) for d in USERS for p in sorted((ROOT / d).rglob("*.py"))]


@pytest.fixture(scope="module")
def refs(program) -> set:
    return set().union(*(_refs(s) for s in program))


@pytest.fixture(scope="module")
def calls(program) -> list:
    return [c for s in program for c in _calls(s)]


def _unused(path: Path, module: str, refs) -> list[str]:
    # a definition's references to itself (recursion, a class named in
    # its own methods) do not count
    def used(qual: str) -> bool:
        key = ("attr", qual.rsplit(".", 1)[1]) if "." in qual else ("def", f"{module}.{qual}")
        return any(
            k == key and not (f == path and (o == qual or (o or "").startswith(qual + ".")))
            for f, k, o in refs
        )

    return [qual for qual in _public_defs(path) if not used(qual)]


def test_guard_sees_the_stage_modules():
    assert {p.parent.name for p in GUARDED} == {
        "repro", "baselines", "bench", "chartsim", "core", "index", "lake"
    }
    names = {n for p in GUARDED for n in _public_defs(p)}
    assert {"TableIntervals", "LSHIndex", "repository_df", "ranked_topk", "top_k"} <= names
    assert {"LSHIndex.query", "DatasetEncoder.encode_table", "TableEncoding.n_cols"} <= names


def _write_src(tmp_path: Path, files: dict[str, str]) -> list[Source]:
    """Files written under ``tmp_path`` as if it were the repo root."""
    for rel, text in files.items():
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text(text)
    return [Source.read(tmp_path / rel, tmp_path) for rel in files]


def test_guard_flags_a_class_named_only_in_its_own_methods(tmp_path):
    (src,) = _write_src(tmp_path, {
        "src/pkg/mod.py": (
            "class C:\n"
            "    @classmethod\n"
            "    def make(cls):\n"
            "        return C()\n"
            "\n"
            "def user(c):\n"
            "    return c.make()\n"
        ),
    })
    assert _unused(src.path, src.module, _refs(src)) == ["C", "user"]


def test_guard_flags_a_definition_only_shadowed_by_a_local_name(tmp_path):
    """A loop variable in another file named like a definition is not a
    reference to it; an import, a module attribute or an own-module load is."""
    srcs = _write_src(tmp_path, {
        "src/pkg/data.py": (
            "def part(): ...\n"
            "def orders(): ...\n"
            "def lineitem(): ...\n"
            "def helper(): ...\n"
            "def uses_helper():\n"
            "    return helper()\n"
        ),
        "jobs/job.py": (
            "from pkg import data\n"
            "from pkg.data import orders\n"
            "for part in ('a', 'b'):\n"
            "    print(part, orders, data.lineitem, data.uses_helper)\n"
        ),
    })
    refs = set().union(*(_refs(s) for s in srcs))
    assert _unused(srcs[0].path, srcs[0].module, refs) == ["part"]


@pytest.mark.parametrize("path", GUARDED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_public_defs_used_outside_tests(path, refs):
    unused = _unused(path, _module(path), refs)
    assert not unused, f"{path.name}: referenced only by tests, or not at all: {unused}"


# --------------------------------------------------------------------------
# settings
# --------------------------------------------------------------------------
def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        getattr(f, "id", getattr(f, "attr", None)) == "dataclass"
        for f in (d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list)
    )


def _defaulted(fn: ast.FunctionDef, shift: int) -> list[tuple[str, int | None]]:
    """(name, index among the positional arguments of a call, or None for
    keyword-only) of each defaulted parameter; ``shift`` drops ``self``."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    out = [(a.arg, i - shift) for i, a in enumerate(pos) if i >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _field_default(value: ast.expr | None) -> str:
    """"none" (required), "default" or "noinit" for a dataclass field."""
    if value is None:
        return "none"
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        kw = {k.arg: k.value for k in value.keywords}
        if isinstance(kw.get("init"), ast.Constant) and kw["init"].value is False:
            return "noinit"
        return "default" if {"default", "default_factory"} & set(kw) else "none"
    return "default"


def _settings(src: Source):
    """(qualified name, call key, defaulted parameters) of every public
    function, method and constructor of a module.

    The call key is ``("def", dotted target)`` for a function or class, and
    ``("attr", name)`` for a method."""
    for s in src.tree.body:
        if not isinstance(s, DEFS) or s.name.startswith("_"):
            continue
        target = ("def", f"{src.module}.{s.name}")
        if isinstance(s, FUNCS):
            yield s.name, target, _defaulted(s, 0)
            continue
        if s.name in CONFIGS:
            continue
        if _is_dataclass(s):
            fields = [
                (b.target.id, _field_default(b.value))
                for b in s.body
                if isinstance(b, ast.AnnAssign) and isinstance(b.target, ast.Name)
            ]
            init = [(n, d) for n, d in fields if d != "noinit"]
            yield s.name, target, [(n, i) for i, (n, d) in enumerate(init) if d == "default"]
        for m in s.body:
            if not isinstance(m, FUNCS):
                continue
            static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
            if m.name == "__init__":
                yield s.name, target, _defaulted(m, 1)
            elif not m.name.startswith("_"):
                yield f"{s.name}.{m.name}", ("attr", m.name), _defaulted(m, 0 if static else 1)


def _calls(src: Source) -> list[tuple[tuple[str, str], float, set[str] | None]]:
    """(call key, positional argument count, keyword names) of every call
    in a file; the count is ``inf`` with ``*args``, the names ANY with
    ``**kw``. A call through an attribute is keyed both ways."""
    out = []
    for n in ast.walk(src.tree):
        if not isinstance(n, ast.Call):
            continue
        npos = float("inf") if any(isinstance(a, ast.Starred) for a in n.args) else len(n.args)
        kws = {k.arg for k in n.keywords}
        kws = ANY if None in kws else kws
        target = src.target(n.func)
        if target:
            out.append((("def", target), npos, kws))
        if isinstance(n.func, ast.Attribute):
            out.append((("attr", n.func.attr), npos, kws))
    return out


def _unset(src: Source, calls) -> list[str]:
    """``qualname(param)`` of each defaulted parameter no call passes."""
    by_key: dict = {}
    for key, npos, kws in calls:
        by_key.setdefault(key, []).append((npos, kws))
    out = []
    for qual, key, params in _settings(src):
        sites = by_key.get(key, [])
        for name, index in params:
            if not any(
                kws is ANY or name in kws or (index is not None and npos > index)
                for npos, kws in sites
            ):
                out.append(f"{qual}({name})")
    return out


def test_guard_flags_a_setting_no_call_passes(tmp_path):
    srcs = _write_src(tmp_path, {
        "src/pkg/mod.py": (
            "from dataclasses import dataclass, field\n"
            "def f(a, b=1, *, c=2, d=3): ...\n"
            "class K:\n"
            "    def __init__(self, x, y=0, z=0): ...\n"
            "    def m(self, p=1, q=2): ...\n"
            "@dataclass\n"
            "class R:\n"
            "    a: int\n"
            "    b: int = 0\n"
            "    c: list = field(default_factory=list)\n"
            "    d: int = field(init=False, default=0)\n"
            "@dataclass\n"
            "class BenchmarkConfig:\n"
            "    seed: int = 13\n"
        ),
        "jobs/job.py": (
            "from pkg.mod import K, R, f\n"
            "f(0, 5, c=1)\n"
            "K(1, 2).m(q=3)\n"
            "R(1, 2)\n"
        ),
    })
    calls = [c for s in srcs for c in _calls(s)]
    assert _unset(srcs[0], calls) == ["f(d)", "K(z)", "K.m(p)", "R(c)"]


def test_guard_flags_a_job_setting_no_job_passes(tmp_path):
    """A job reaches ``_common`` by its bare module name."""
    srcs = _write_src(tmp_path, {
        "jobs/_common.py": (
            "def trained_fcm(bench, *, variant='full', epochs=60): ...\n"
            "def setup(argv=None, *, with_tpch=True): ...\n"
        ),
        "jobs/table2.py": (
            "from _common import setup, trained_fcm\n"
            "def main(argv=None):\n"
            "    bench = setup(argv)\n"
            "    return trained_fcm(bench, variant='no_da')\n"
        ),
    })
    calls = [c for s in srcs for c in _calls(s)]
    assert _unset(srcs[0], calls) == ["trained_fcm(epochs)", "setup(with_tpch)"]


@pytest.mark.parametrize("path", SETTINGS_GUARDED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_settings_passed_by_the_program(path, program, calls):
    (src,) = [s for s in program if s.path == path]
    unset = _unset(src, calls)
    assert not unset, f"{path.name}: defaulted parameters no program call passes: {unset}"
