"""The paper's evaluation as a gate.

Each figure script under ``benchmarks/`` recomputes one figure or table of
the paper (Figs. 6-8, Table 2, the fusion ablation), asserts its
qualitative shape and writes every priced run to ``benchmarks/results/``.
Here each script runs on the NumPy backend with its output redirected to a
temporary directory, and every file it writes must equal the committed
one: a moved number is a change to a reproduced paper claim
(EXPERIMENTS.md).

To regenerate the committed files after a deliberate change::

    PYTHONPATH=src python -m pytest -q \\
        benchmarks/bench_fig6_transforms.py benchmarks/bench_fig7_numa.py \\
        benchmarks/bench_fig8_cluster.py benchmarks/bench_fig8_graphs.py \\
        benchmarks/bench_fig8_gibbs.py benchmarks/bench_table2_sequential.py \\
        benchmarks/bench_ablation_fusion.py
"""

import importlib.util
import json
import pathlib
import sys
import types

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"

SCRIPTS = ["bench_fig6_transforms", "bench_fig7_numa", "bench_fig8_cluster",
           "bench_fig8_graphs", "bench_fig8_gibbs", "bench_table2_sequential",
           "bench_ablation_fusion"]


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: stands in for pytest-benchmark's fixture: the harness's ``once`` calls
#: ``pedantic`` and takes its return value
RUN_ONCE = types.SimpleNamespace(pedantic=lambda fn, **_: fn())


@pytest.mark.parametrize("script", SCRIPTS)
def test_figure_script_reproduces_committed_results(script, tmp_path,
                                                    monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "numpy")
    harness = _load("conftest", BENCH_DIR / "conftest.py")
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    monkeypatch.setitem(sys.modules, "conftest", harness)
    bench = _load(f"paper_{script}", BENCH_DIR / f"{script}.py")
    tests = [fn for name, fn in vars(bench).items()
             if name.startswith("test_") and callable(fn)]
    assert tests
    for fn in tests:  # in file order: later ones extend the same JSON
        fn(RUN_ONCE)

    written = sorted(tmp_path.iterdir())
    assert any(p.suffix == ".json" for p in written)
    for path in written:
        committed = BENCH_DIR / "results" / path.name
        if path.suffix == ".json":
            assert json.loads(path.read_text()) == \
                json.loads(committed.read_text()), path.name
        else:
            assert path.read_text() == committed.read_text(), path.name
