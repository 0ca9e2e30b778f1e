"""Compiled-program cache: compile once, serve every later request.

The serving layer's first premise (ROADMAP open item 1) is that the
expensive part of a request is the *pipeline*, not the execution — so
the cache compiles each ``(app, variant)`` at most once and records the
compile's ``DecisionLedger.digest()`` on the entry. The digest is the
same stable fingerprint the regression observatory tracks: two compiles
that made identical decisions carry the same digest, so a drift shows on
the entry instead of passing as a silently different program.

Beside the compiles sits what was executed from them: the capture store,
one functional execution per (compiled program, input content). What a
program computes is a function of its data alone — not of the tenant that
sent it, nor of the server or machine that will price it — so the store
is keyed by ``Payload.digest`` and lives exactly as long as the compile
it ran (DESIGN.md §9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple, Union

from ..core.ir import Program
from ..obs.provenance import DecisionLedger, ledger_scope
from ..pipeline import VARIANTS, CompiledProgram, compile_program
from ..runtime.executor import RunCapture
from .batching import Payload


@dataclass
class CompiledEntry:
    """One cached compile and its identity."""

    app: str
    variant: str
    compiled: CompiledProgram
    #: DecisionLedger.digest() of this compile — the serving layer's
    #: provenance anchor
    digest: str
    #: host seconds the compile took (what a cache hit saves)
    compile_s: float
    hits: int = 0


class ProgramCache:
    """In-process cache of compiled programs, keyed by app × variant.

    ``factories`` maps app name to a zero-argument staged-``Program``
    factory (the same callables the benchmark bundles own). Compiles run
    under a *fresh* ledger scope so each entry's digest covers exactly
    its own pipeline decisions, even when an outer explain scope is
    active.
    """

    def __init__(self, factories: Dict[str, Callable[[], Program]],
                 metrics: Optional[Any] = None):
        self.factories = dict(factories)
        self.metrics = metrics
        self._entries: Dict[Tuple[str, str], CompiledEntry] = {}
        self.hits = 0
        self.misses = 0
        #: (app, variant, payload digest, backend) -> the capture, or the
        #: reason its execution raised
        self._captures: Dict[Tuple[str, str, str, str],
                             Union[RunCapture, str]] = {}
        #: functional executions performed / answered from the store: what
        #: the runs on this cache cost the host (plain attributes, in no
        #: report and not in ``stats()``)
        self.captures_run = 0
        self.captures_reused = 0

    def get(self, app: str, variant: str = "opt") -> CompiledEntry:
        key = (app, variant)
        entry = self._entries.get(key)
        if entry is not None:
            entry.hits += 1
            self.hits += 1
            if self.metrics is not None:
                self.metrics.inc("serve.cache.program.hits", app=app)
            return entry
        if app not in self.factories:
            raise KeyError(f"unknown app {app!r}; served apps: "
                           f"{sorted(self.factories)}")
        if variant not in VARIANTS:
            raise KeyError(f"unknown variant {variant!r}; expected one of "
                           f"{sorted(VARIANTS)}")
        target, kwargs = VARIANTS[variant]
        t0 = time.perf_counter()
        with ledger_scope(DecisionLedger()):
            compiled = compile_program(self.factories[app](), target,
                                       **kwargs)
        compile_s = time.perf_counter() - t0
        digest = compiled.provenance.digest() if compiled.provenance else ""
        entry = CompiledEntry(app, variant, compiled, digest, compile_s)
        self._entries[key] = entry
        self.misses += 1
        if self.metrics is not None:
            self.metrics.inc("serve.cache.program.misses", app=app)
            self.metrics.observe("serve.cache.compile_s", compile_s, app=app)
        return entry

    def capture(self, app: str, variant: str, payload: Payload, backend: str,
                execute: Callable[[CompiledProgram], RunCapture]
                ) -> RunCapture:
        """The one functional execution of ``(app, variant)`` on
        ``payload``'s content by ``backend``. ``execute`` runs at most
        once per store key, for whichever caller asks first; when it
        raises, the reason is kept in the capture's place and every
        caller, the first included, gets a ``RuntimeError`` carrying it."""
        key = (app, variant, payload.digest, backend)
        held = self._captures.get(key)
        if held is None:
            compiled = self.get(app, variant).compiled
            self.captures_run += 1
            try:
                held = execute(compiled)
            except Exception as exc:
                self._captures[key] = str(exc)
                raise RuntimeError(str(exc)) from exc
            self._captures[key] = held
            return held
        self.captures_reused += 1
        if isinstance(held, str):
            raise RuntimeError(held)
        return held

    def invalidate(self, app: Optional[str] = None) -> int:
        """Drop cached compiles for ``app`` (or every app when ``None``
        / ``"*"``), and with them every capture and recorded failure
        executed from them; return how many compiles were evicted. The
        next ``get`` recompiles and counts a miss, the next ``capture``
        executes again — this is the hook the fault plan's ``cache``
        events use."""
        memos = (self._entries, self._captures)
        evicted = len(self._entries)
        if app in (None, "*"):
            for memo in memos:
                memo.clear()
            return evicted
        for memo in memos:
            for k in [k for k in memo if k[0] == app]:
                del memo[k]
        return evicted - len(self._entries)

    def stats(self) -> Dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits,
                "misses": self.misses}
