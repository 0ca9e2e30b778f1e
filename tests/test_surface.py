"""The public and private surface of ``src/repro`` is what something uses.

Three rules, all checked from the source text alone (no import of the
package, so a definition cannot hide behind a lazy import):

1. every function, class and method defined under ``src/repro`` is
   referenced by name — as a name, an attribute or a string that spells
   it (``getattr``/``monkeypatch`` targets) — somewhere other than its
   own definition, an import of it or an ``__all__`` entry, in ``src/``,
   ``tests/``, ``benchmarks/``, ``examples/`` or the CI workflows;
2. the environment is read in one place, ``backend/__init__.py``
   (``REPRO_BACKEND``);
3. that reference comes from outside ``tests/``: a definition only tests
   use is dead code with a test around it, unless it is in ``ALLOWED``
   with the reason it stays (an oracle a test compares against, or a
   view a test reads production state through).

A new option follows the same bar one level up: it needs two production
callers (``src/``, ``benchmarks/``, ``examples/``, CI) that pass
different values; a caller that is only a test does not justify one.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PRODUCTION_DIRS = ("src", "benchmarks", "examples")
REFERENCE_DIRS = PRODUCTION_DIRS + ("tests",)
WORKFLOWS = Path(".github") / "workflows"

_ORACLE = "the plain-Python oracle the app's tests compare results against"

#: definitions only tests refer to by name, each with the reason it stays
ALLOWED = {
    "gda_oracle": _ORACLE,
    "gene_oracle": _ORACLE,
    "gibbs_oracle_sweep": _ORACLE,
    "knn_oracle": _ORACLE,
    "logreg_oracle": _ORACLE,
    "nb_oracle": _ORACLE,
    "pagerank_oracle": _ORACLE,
    "decompose_timeline": "per-request oracle that tests/obs_reference.py "
                          "checks the columnar request_decomposition "
                          "against",
    "timeline_of": "the server's marks as one RequestTimeline per request: "
                   "what tests/obs_reference.py rebuilds its reference "
                   "serving spans from",
    "render_spans": "the span-tree text tests/test_serve_pins.py pins and "
                    "tests/test_serve_record.py compares",
    "group_by_value": "frontend DSL operation that no bundled app writes; "
                      "the frontend and backend tests stage programs "
                      "with it",
    "contains": "frontend DSL operation that no bundled app writes; "
                "tests/test_analysis.py stages a program with it",
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


def _workflow_refs(root: Path):
    return {word for path in sorted((root / WORKFLOWS).glob("*.yml"))
            for word in re.findall(r"[A-Za-z_]\w*", path.read_text())}


def unreferenced_definitions(root: Path = ROOT, allowed=(),
                             dirs=REFERENCE_DIRS):
    """``[(relative path, line, name)]`` of definitions under
    ``root/src/repro`` that nothing in ``dirs`` or the CI workflows
    names."""
    refs = _workflow_refs(root)
    defs = []
    for d in dirs:
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


def referenced_only_by_tests(root: Path = ROOT, allowed=ALLOWED):
    """Definitions no production path names (rule 3)."""
    return unreferenced_definitions(root, allowed, PRODUCTION_DIRS)


def environment_reads(root: Path = ROOT):
    pat = re.compile(r"\bos\.(environ|getenv)\b")
    return sorted({p.relative_to(root).as_posix()
                   for p in (root / "src").rglob("*.py")
                   if pat.search(p.read_text())})


def test_every_definition_has_a_reference():
    dead = unreferenced_definitions()
    assert not dead, "defined but referenced nowhere:\n" + "\n".join(
        f"  {rel}:{line} {name}" for rel, line, name in dead)


def test_every_definition_has_a_production_reference():
    only = referenced_only_by_tests()
    assert not only, (
        "referenced only from tests/ (delete it with its tests, or add it "
        "to ALLOWED with the reason it stays):\n" + "\n".join(
            f"  {rel}:{line} {name}" for rel, line, name in only))


def test_allowlist_is_minimal():
    # an allowlisted name that gained a production reference, or lost its
    # definition, no longer needs its entry
    only = {name for _, _, name in referenced_only_by_tests(allowed=())}
    assert set(ALLOWED) <= only


def test_environment_is_read_in_one_place():
    assert environment_reads() == ["src/repro/backend/__init__.py"]


if __name__ == "__main__":
    # python tests/test_surface.py [TREE]: list what the rules find in a
    # checkout (the parent commit, say) without running pytest there
    import sys
    tree = Path(sys.argv[1]).resolve() if len(sys.argv) > 1 else ROOT
    for rel, line, name in unreferenced_definitions(tree):
        print(f"{rel}:{line} {name}")
    for rel, line, name in referenced_only_by_tests(tree):
        print(f"{rel}:{line} {name} (tests only)")
    print("environment read in:", ", ".join(environment_reads(tree)))
