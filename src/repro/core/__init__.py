"""DMLL core: IR, type system, multiloops, staging, and the reference
interpreter."""

from . import types
from .interp import ExecStats, Interp, run_program
from .ir import Block, Const, Def, Exp, Program, Sym, fresh
from .multiloop import GenKind, Generator, MultiLoop
from .pretty import pretty
from .verify import IRVerificationError, verify_program

__all__ = [
    "types", "ExecStats", "Interp", "run_program",
    "Block", "Const", "Def", "Exp", "Program", "Sym", "fresh",
    "GenKind", "Generator", "MultiLoop", "pretty",
    "IRVerificationError", "verify_program",
]
