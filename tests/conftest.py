"""Test-suite-wide configuration.

Per-pass IR verification is opt-in in production (``DEFAULT_VERIFY`` is
False — it costs a full IR walk per pass) but on for the whole test
suite: every ``compile_program``/``optimize`` call in any test checks
the structural invariants at every pass boundary.

Execution backend: every ``CompiledProgram.run`` / ``capture_run`` /
served batch that names no backend runs on the NumPy default; setting
``REPRO_BACKEND=reference`` in the environment routes them through the
reference interpreter instead (``repro.backend.resolve_backend`` reads
the variable) — the CI matrix runs one leg per backend. Tests that use
the interpreter as the oracle name it themselves (``backend="reference"``
or ``repro.core.interp.run_program``). The header line below makes the
active backend visible in the pytest report.
"""

import repro.pipeline as pipeline

pipeline.DEFAULT_VERIFY = True


def pytest_report_header(config):
    from repro.backend import resolve_backend
    return f"repro execution backend: {resolve_backend()}"
