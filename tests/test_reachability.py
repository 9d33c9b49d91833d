"""Every public name in ``src/sqzq`` is reached by a command.

The package is what its commands run: a public function, class, method,
property, dataclass field or module constant that no command reaches is
either test-only code, which belongs in ``tests/oracles.py``, or dead code.
The walk starts at ``cli.main`` and at the module level of every module
(which runs at import: decorators, defaults, class bodies, constants).  From
a reached function it follows each name the body reads:

- a function, class or constant defined at the top of the same module;
- an import alias (``from .x import y as z``, at any depth), resolved to what
  it binds, through re-exports;
- ``module.attr`` on a package module;
- any other ``obj.attr``, which reaches every member named ``attr`` of every
  class in the package, since the class of ``obj`` is not known statically;
- a string constant, split at dots, likewise (``getattr`` paths such as
  ``"init.q1"``).

A keyword argument reaches nothing: a field that reached code only builds
(``Record(field=...)``) and nothing reads is unreached.

A reached class reaches its dunder methods, which Python calls implicitly.
The walk over-approximates, so a name it calls unreached is unreached.
Names that start with an underscore, and the members of such classes, are
private and not checked.

``PLANNED`` lists the public names that no command reaches yet, each with
the ROADMAP item that will reach it.  The walk starts from them too, so
what planned code calls stays with it; an entry that a command now
reaches, or that no longer exists, fails, so the list cannot go stale.
``BENCHMARK`` lists the fields that only the benchmark's oracles read, and
is held to the same rule, and to the benchmark still reading each.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# qualified name (module.name or module.Class.member) -> the ROADMAP item that will reach it
PLANNED = {
    "pdm.classical_exact": "item 5: the k = 0 branch of classical motion in closed form",
    "pdm.semiclassical_energy": "item 8: the lower symbol of the quantised PDM Hamiltonian",
    "pdm.initial_momenta": "items 8 and 12: the start state of the quantum reference",
    "onemode.fock_coefficients": "items 8 and 12: the lower symbol c(z)^H A_H c(z) and the start state",
    "quantmap.dirac_correspondence_check": "item 10: verify's canonical-commutator check",
    "quantmap.symmetrisation_constant": "item 10: verify's qp-symmetrised check",
    "sepstates.portrait_hq": "item 10: verify's phi0-limit check",
    "sepstates.sep_wavefunction": "item 10: verify's phi0-limit check",
}

# qualified name -> what in bench/ reads it; each is read there as ``obj.<member>``
BENCHMARK = {
    "nonsepstates.NonSepCoefficients.Delta1": "bench/oracles.py: the coupled kernel's precision matrix",
    "nonsepstates.NonSepCoefficients.Delta2": "bench/oracles.py: the coupled kernel's precision matrix",
    "nonsepstates.NonSepCoefficients.ell": "bench/oracles.py: the coupled kernel's precision matrix",
}


def _public(name: str) -> bool:
    return not name.startswith("_")


def _join(*parts) -> str:
    return ".".join(p for p in parts if p)


def _is_all(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
    )


def _code(node: ast.AST):
    """The nodes under ``node``, as ``ast.walk`` gives them, without the
    string statements (docstrings), whose words name nothing."""
    todo = [node]
    while todo:
        sub = todo.pop()
        if isinstance(sub, ast.Expr) and isinstance(sub.value, ast.Constant) and isinstance(sub.value.value, str):
            continue
        yield sub
        todo.extend(ast.iter_child_nodes(sub))


class _Module:
    """One source file: its top-level definitions and its import aliases.

    ``package`` is the dotted package that relative imports start from."""

    def __init__(self, name: str, package: str, path: Path):
        self.name = name
        self.tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        self.defs: dict[str, ast.AST] = {}  # functions, classes and constants at the top
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and not _is_all(node):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.defs[target.id] = node
        self.imports: dict[str, tuple[str, str]] = {}  # alias -> (module, name)
        for node in ast.walk(self.tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                parts = package.split(".") if package else []
                base = _join(*parts[: len(parts) - (node.level - 1)], node.module)
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (base, alias.name)


class Graph:
    """The package at ``root`` and the names its commands reach; modules are
    named relative to it (``pdm``, ``cli``), the package's own
    ``__init__`` as ``__init__``."""

    def __init__(self, root: Path, entries=(("cli", "main"),)):
        self.modules: dict[str, _Module] = {}
        for path in sorted(root.rglob("*.py")):
            parts = list(path.relative_to(root).with_suffix("").parts)
            if parts[-1] == "__init__":
                package = ".".join(parts[:-1])
                name = package or "__init__"
            else:
                package, name = ".".join(parts[:-1]), ".".join(parts)
            self.modules[name] = _Module(name, package, path)
        # every member of every class, by member name, for obj.attr
        self.members: dict[str, list[tuple[str, str, ast.AST]]] = {}
        for mod in self.modules.values():
            for cname, node in mod.defs.items():
                if isinstance(node, ast.ClassDef):
                    for member, body in self._class_members(node):
                        self.members.setdefault(member, []).append((mod.name, cname, body))
        self.reached: set[str] = set()
        self._queue: list[tuple[str, ast.AST]] = []
        for mod in self.modules.values():
            for node in mod.tree.body:
                self._enqueue_executed(mod.name, node)
        for module, name in entries:
            self._reach(module, name)
        while self._queue:
            self._visit(*self._queue.pop())

    @staticmethod
    def _class_members(node: ast.ClassDef):
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield stmt.name, stmt
            elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                yield stmt.target.id, stmt
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        yield target.id, stmt

    def public_names(self) -> set[str]:
        names = set()
        for mod in self.modules.values():
            for name, node in mod.defs.items():
                if not _public(name):
                    continue
                names.add(f"{mod.name}.{name}")
                if isinstance(node, ast.ClassDef):
                    names.update(f"{mod.name}.{name}.{m}" for m, _ in self._class_members(node) if _public(m))
        return names

    def unreached(self) -> set[str]:
        return self.public_names() - self.reached

    # ------------------------------------------------------------------

    def _enqueue_executed(self, module: str, node: ast.AST) -> None:
        """The parts of a top-level statement that run at import."""
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for part in [*node.decorator_list, *node.args.defaults, *node.args.kw_defaults]:
                if part is not None:
                    self._queue.append((module, part))
        elif isinstance(node, ast.ClassDef):
            for part in [*node.decorator_list, *node.bases, *node.keywords]:
                self._queue.append((module, part))
            for stmt in node.body:
                self._enqueue_executed(module, stmt)
        elif isinstance(node, ast.AnnAssign):
            # a class field's annotation names no value; its default does
            if node.value is not None:
                self._queue.append((module, node.value))
        elif not isinstance(node, (ast.Import, ast.ImportFrom)) and not _is_all(node):
            self._queue.append((module, node))

    def _reach(self, module: str, name: str, seen=None) -> None:
        """Mark ``module.name`` reached, following an import alias."""
        seen = seen or set()
        if (module, name) in seen or module not in self.modules:
            return
        seen.add((module, name))
        mod = self.modules[module]
        if name in mod.defs:
            key = f"{module}.{name}"
            if key in self.reached:
                return
            self.reached.add(key)
            node = mod.defs[name]
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._queue.append((module, node))
            elif isinstance(node, ast.ClassDef):
                for member, body in self._class_members(node):
                    if member.startswith("__") and member.endswith("__"):
                        self._reach_member(module, name, member, body)
        elif name in mod.imports:
            target, attr = mod.imports[name]
            if _join(target, attr) in self.modules:
                return  # a module alias: only its attributes reach anything
            self._reach(target or "__init__", attr, seen)

    def _reach_member(self, module: str, cls: str, member: str, body: ast.AST) -> None:
        key = f"{module}.{cls}.{member}"
        if key not in self.reached:
            self.reached.add(key)
            self._queue.append((module, body))

    def _reach_attribute(self, attr: str) -> None:
        for module, cls, body in self.members.get(attr, ()):
            self._reach_member(module, cls, attr, body)

    def _module_of(self, module: str, node: ast.AST) -> str | None:
        """The package module that the expression ``node`` names, if any."""
        if isinstance(node, ast.Name) and node.id in self.modules[module].imports:
            target, attr = self.modules[module].imports[node.id]
            if _join(target, attr) in self.modules:
                return _join(target, attr)
        return None

    def _visit(self, module: str, node: ast.AST) -> None:
        for sub in _code(node):
            if isinstance(sub, ast.Name):
                self._reach(module, sub.id)
            elif isinstance(sub, ast.Attribute):
                target = self._module_of(module, sub.value)
                if target is not None:
                    self._reach(target, sub.attr)
                else:
                    self._reach_attribute(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                for piece in sub.value.split("."):
                    if piece.isidentifier():
                        self._reach_attribute(piece)


@pytest.fixture(scope="module")
def commands():
    return Graph(SRC / "sqzq")


def test_every_public_name_is_reached_by_a_command_or_planned():
    roots = [("cli", "main"), *(tuple(name.rsplit(".", 1)) for name in PLANNED)]
    unplanned = sorted(Graph(SRC / "sqzq", roots).unreached() - set(PLANNED) - set(BENCHMARK))
    assert not unplanned, (
        "public names that no command reaches: move test-only code to tests/oracles.py, "
        "delete dead code, name the ROADMAP item that will reach it in PLANNED, or name what "
        f"reads it in bench/ in BENCHMARK: {unplanned}"
    )


def test_planned_names_exist_and_are_not_yet_reached(commands):
    stale = sorted(set(PLANNED) - commands.unreached())
    assert not stale, f"PLANNED entries that a command reaches or that no longer exist: {stale}"


def test_benchmark_fields_exist_are_not_yet_reached_and_are_read_by_the_benchmark(commands):
    stale = sorted(set(BENCHMARK) - commands.unreached())
    assert not stale, f"BENCHMARK entries that a command reaches or that no longer exist: {stale}"
    read = {node.attr for path in (SRC.parent / "bench").glob("*.py")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Attribute)}
    unread = sorted(name for name in BENCHMARK if name.rsplit(".", 1)[1] not in read)
    assert not unread, f"BENCHMARK entries that bench/ no longer reads: {unread}"


def test_the_walk_finds_an_unreached_function(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "cli").mkdir(parents=True)
    (pkg / "__init__.py").write_text("from . import core, cli\n")
    (pkg / "core.py").write_text(
        "from dataclasses import dataclass\n\n"
        "@dataclass\nclass Box:\n    used: float\n    unused: float\n    built: float = 0.0\n\n"
        "    def size(self):\n        return helper(self.used)\n\n"
        "    def spare(self):\n        return 0\n\n"
        "def helper(x):\n    return x\n\n"
        "def orphan():\n    return helper(1)\n"
    )
    (pkg / "cli" / "__init__.py").write_text(
        "from ..core import Box as _Box\nfrom .. import core\n\n"
        "def main():\n    return _Box(1.0, 2.0, built=3.0).size() + len(getattr(core, 'x', ''))\n"
    )
    # a field that is only ever named as a keyword argument is built, not read
    assert Graph(pkg).unreached() == {"core.orphan", "core.Box.unused", "core.Box.built", "core.Box.spare"}
