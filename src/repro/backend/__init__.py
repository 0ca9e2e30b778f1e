"""Execution backends for optimized DMLL programs.

Two engines share the reference interpreter's semantics and cost model:
``"numpy"`` (``repro.backend.executor``, the default) runs multiloops as
vectorized kernels with recorded per-loop fallback to the interpreter;
``"reference"`` (``repro.core.interp``) is that per-element interpreter,
the oracle the differential checks name explicitly.

``engine`` builds the interpreter ``resolve_backend`` names: an explicit
argument, else ``REPRO_BACKEND``, else ``DEFAULT_BACKEND``.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

from ..core.interp import Interp
from .executor import FallbackRecord, NumpyInterp, run_program_numpy
from .vectorize import VecError, plan_loop

BACKENDS = ("reference", "numpy")

DEFAULT_BACKEND = "numpy"


def resolve_backend_ex(name: Optional[str] = None) -> Tuple[str, str]:
    """Resolve the backend and say where the choice came from.

    Returns ``(backend, source)`` with source one of ``"argument"``,
    ``"env:REPRO_BACKEND"``, ``"default"``. Surrounding whitespace is
    stripped; a blank argument or a set-but-blank ``REPRO_BACKEND`` is
    an error, so a mistyped CI leg cannot run the default unnoticed.
    """
    source = "argument"
    if name is None:
        name, source = os.environ.get("REPRO_BACKEND"), "env:REPRO_BACKEND"
        if name is None:
            return DEFAULT_BACKEND, "default"
    name = name.strip()
    if not name:
        raise ValueError(f"blank backend (from {source}); expected one of "
                         f"{BACKENDS}")
    if name not in BACKENDS:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKENDS}")
    return name, source


def resolve_backend(name: Optional[str] = None) -> str:
    """Explicit choice > ``REPRO_BACKEND`` env var > ``DEFAULT_BACKEND``."""
    return resolve_backend_ex(name)[0]


def engine(backend: Optional[str] = None, per_iter: bool = False,
           profile_host: bool = False) -> Interp:
    """The interpreter ``backend`` resolves to; its ``backend`` attribute
    names it. ``profile_host`` times loops on the NumPy engine only."""
    if resolve_backend(backend) == "numpy":
        return NumpyInterp(per_iter=per_iter, profile_host=profile_host)
    return Interp(per_iter=per_iter)


__all__ = ["BACKENDS", "DEFAULT_BACKEND", "FallbackRecord", "NumpyInterp",
           "VecError", "engine", "plan_loop", "resolve_backend",
           "resolve_backend_ex", "run_program_numpy"]
