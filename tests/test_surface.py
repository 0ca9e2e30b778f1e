"""The public and private surface of ``src/repro`` is what something uses.

Two rules, both checked from the source text alone (no import of the
package, so a definition cannot hide behind a lazy import):

1. every function, class and method defined under ``src/repro`` is
   referenced by name — as a name, an attribute or a string that spells
   it (``getattr``/``monkeypatch`` targets) — somewhere other than its
   own definition, an import of it or an ``__all__`` entry, in ``src/``,
   ``tests/``, ``benchmarks/`` or ``examples/``;
2. the environment is read in one place, ``backend/__init__.py``
   (``REPRO_BACKEND``).

A new option follows the same bar one level up: it needs two production
callers (``src/``, ``benchmarks/``, ``examples/``, CI) that pass
different values; a caller that is only a test does not justify one.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REFERENCE_DIRS = ("src", "tests", "benchmarks", "examples")

#: definitions nothing refers to by name, each with the reason it stays
ALLOWED = {
    "loop_rows_from_sim": "imported by tests/test_analyze.py, which keeps "
                          "it as the SimResult-side oracle of "
                          "loop_rows_from_span",
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


class _Refs(ast.NodeVisitor):
    """Names a file refers to, not counting imports, ``__all__`` entries
    and a definition's references to itself (recursion)."""

    def __init__(self):
        self.refs = set()
        self.defs = []            # (name, lineno)
        self._inside = []

    def _ref(self, name):
        if name not in self._inside:
            self.refs.add(name)

    def _visit_def(self, node):
        self.defs.append((node.name, node.lineno))
        self._inside.append(node.name)
        self.generic_visit(node)
        self._inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def visit_Name(self, node):
        self._ref(node.id)

    def visit_Attribute(self, node):
        self._ref(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str):
            # "pkg.mod.name" patch targets and bare "name" getattr keys
            for part in node.value.split("."):
                if part.isidentifier():
                    self._ref(part)

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in node.targets):
            return
        self.generic_visit(node)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import


def _scan(path: Path) -> _Refs:
    v = _Refs()
    v.visit(ast.parse(path.read_text(), filename=str(path)))
    return v


def unreferenced_definitions(root: Path = ROOT, allowed=ALLOWED):
    """``[(relative path, line, name)]`` of definitions under
    ``root/src/repro`` that nothing in the reference directories names."""
    refs = set()
    defs = []
    for d in REFERENCE_DIRS:
        for path in sorted((root / d).rglob("*.py")):
            if path.name == Path(__file__).name:
                continue      # its allowlist spells the names it allows
            v = _scan(path)
            refs |= v.refs
            if (root / "src" / "repro") in path.parents:
                rel = path.relative_to(root).as_posix()
                defs += [(rel, line, name) for name, line in v.defs]
    return [(rel, line, name) for rel, line, name in defs
            if name not in refs and name not in allowed
            and not _is_dunder(name)]


def environment_reads(root: Path = ROOT):
    pat = re.compile(r"\bos\.(environ|getenv)\b")
    return sorted({p.relative_to(root).as_posix()
                   for p in (root / "src").rglob("*.py")
                   if pat.search(p.read_text())})


def test_every_definition_has_a_reference():
    dead = unreferenced_definitions()
    assert not dead, "defined but referenced nowhere:\n" + "\n".join(
        f"  {rel}:{line} {name}" for rel, line, name in dead)


def test_allowlist_is_minimal():
    # an allowlisted name that gained a reference, or lost its definition,
    # no longer needs its entry
    dead = {name for _, _, name in unreferenced_definitions(allowed=())}
    assert set(ALLOWED) <= dead


def test_environment_is_read_in_one_place():
    assert environment_reads() == ["src/repro/backend/__init__.py"]


if __name__ == "__main__":
    # python tests/test_surface.py [TREE]: list what the rules find in a
    # checkout (the parent commit, say) without running pytest there
    import sys
    tree = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT
    for rel, line, name in unreferenced_definitions(tree):
        print(f"{rel}:{line} {name}")
    print("environment read in:", ", ".join(environment_reads(tree)))
