"""The documents' references to code resolve.

Every backticked path in the prose of the docs below (a token with a
``/`` whose last part has an extension, or that ends in ``/`` or ``*``;
a ``::name`` suffix is dropped) must exist relative to the repo root,
``src/``, ``src/repro/`` or the document's own directory, and every
backticked ``repro.`` name must import and resolve by ``getattr``.
Fenced code blocks are skipped.
"""

import glob
import importlib
import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "benchmarks/e2e/README.md")
TICKED = re.compile(r"(?<!`)`([^`\n]+)`(?!`)")
PATH = re.compile(r"^[\w.-]+(/[\w.*-]+)*(/[\w*-]*\.\w+|/\*|/)$")
NAME = re.compile(r"^repro(\.\w+)+")


def references(doc):
    with open(os.path.join(ROOT, doc)) as f:
        prose = re.sub(r"```.*?```", lambda m: "\n" * m[0].count("\n"),
                       f.read(), flags=re.S)
    for line, text in enumerate(prose.splitlines(), 1):
        for tok in TICKED.findall(text):
            yield line, tok.strip()


def resolves(name):
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        try:
            for attr in parts[i:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_references_resolve(doc):
    roots = (ROOT, os.path.join(ROOT, "src"), os.path.join(ROOT, "src/repro"),
             os.path.dirname(os.path.join(ROOT, doc)))
    dead = []
    for line, tok in references(doc):
        path = tok.split("::")[0]  # a file's test or name
        if PATH.match(path):
            if not any(glob.glob(os.path.join(r, path)) for r in roots):
                dead.append((line, tok))
        elif NAME.match(tok) and not resolves(NAME.match(tok)[0]):
            dead.append((line, tok))
    assert dead == []
