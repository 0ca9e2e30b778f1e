"""Structural tests for the three code generators: the target-specific
lowering decisions of §3.1/§3.2 must be visible in the emitted source."""

import pytest

from repro import frontend as F
from repro.apps.kmeans import kmeans_shared_program
from repro.apps.logreg import logreg_program
from repro.codegen import generate_cpp, generate_cuda, generate_scala
from repro.core import types as T
from repro.pipeline import compile_program


@pytest.fixture(scope="module")
def kmeans_cpu():
    return compile_program(kmeans_shared_program(), "distributed").program


@pytest.fixture(scope="module")
def kmeans_gpu():
    return compile_program(kmeans_shared_program(), "gpu").program


def simple_prog():
    def fn(xs):
        return xs.filter(lambda x: x > 1.0).map(lambda x: x * 2.0).sum()
    return F.build(fn, [F.vector_input("xs", partitioned=True)])


class TestCpp:
    def test_emits_compilable_looking_code(self, kmeans_cpu):
        src = generate_cpp(kmeans_cpu)
        assert "#include <vector>" in src
        assert "for (int64_t" in src
        assert src.count("{") == src.count("}")

    def test_collect_appends(self):
        src = generate_cpp(compile_program(simple_prog(), "cpu").program)
        # fused filter+map+reduce: a conditional reduce, no push_back left
        assert "if (" in src
        assert "seen" in src  # first-element reduce protocol

    def test_bucket_uses_hash(self, kmeans_cpu):
        src = generate_cpp(kmeans_cpu)
        assert "hash-accumulated" in src

    def test_struct_definitions_emitted(self):
        from repro.apps.tpch import q1_program
        prog = q1_program()  # uncompiled: structs still present
        src = generate_cpp(prog)
        assert "struct" in src


class TestCuda:
    def test_kernels_emitted(self, kmeans_cpu):
        src = generate_cuda(kmeans_cpu)
        assert "__global__" in src
        assert "blockIdx.x" in src

    def test_vector_reduce_flagged_without_r2c(self, kmeans_cpu):
        # CPU-compiled k-means reduces vectors: the CUDA backend warns
        src = generate_cuda(kmeans_cpu)
        assert "WARNING: vector-typed reduction" in src

    def test_r2c_removes_vector_reduce_warning(self, kmeans_gpu):
        src = generate_cuda(kmeans_gpu)
        assert "WARNING: vector-typed reduction" not in src

    def test_scalar_reduce_uses_shared_memory(self):
        prog = compile_program(logreg_program(), "gpu").program
        src = generate_cuda(prog)
        assert "shared_tree_reduce" in src

    def test_conditional_collect_two_phase(self):
        def fn(xs):
            return xs.filter(lambda x: x > 1.0)
        prog = F.build(fn, [F.vector_input("xs", partitioned=True)])
        src = generate_cuda(prog)
        assert "exclusive_scan" in src  # two-phase collect, §3.1

    def test_lines_after_a_kernel_keep_the_enclosing_indent(self):
        from repro.apps.knn import knn_program
        src = generate_cuda(compile_program(knn_program(), "gpu").program)
        lines = src.split("\n")

        def indent(line):
            return len(line) - len(line.lstrip())

        launches = [i for i, line in enumerate(lines)
                    if "dmll::launch<" in line]
        # knn nests: some kernels are launched from inside a kernel body
        assert any(indent(lines[i]) > 2 for i in launches)
        for i in launches:
            assert indent(lines[i + 1]) == indent(lines[i])

    def test_buckets_sorted_on_gpu(self, kmeans_gpu):
        src = generate_cuda(kmeans_gpu)
        assert "sort" in src


class TestScala:
    def test_while_loops(self, kmeans_cpu):
        src = generate_scala(kmeans_cpu)
        assert "while (" in src
        assert "case class" not in src  # SoA'd/fused program has no structs

    def test_case_classes_for_structs(self):
        from repro.apps.tpch import q1_program
        src = generate_scala(q1_program())
        assert "final case class LineItem" in src

    def test_balanced_braces(self, kmeans_cpu):
        src = generate_scala(kmeans_cpu)
        assert src.count("{") == src.count("}")


class TestAllTargets:
    def test_all_apps_generate_without_error(self):
        from repro.apps import (gda_program, gene_program, nb_program,
                                q1_program)
        from repro.graph import pagerank_pull_program, triangle_program
        for mk in (gda_program, gene_program, nb_program, q1_program,
                   pagerank_pull_program, triangle_program):
            prog = compile_program(mk(), "distributed").program
            for gen in (generate_cpp, generate_cuda, generate_scala):
                src = gen(prog)
                assert len(src) > 100


# ---------------------------------------------------------------------------
# pin: the emitted sources of the 8 bundled apps x {opt, gpu} x 3 targets
# ---------------------------------------------------------------------------

#: runs in a fresh interpreter: symbol ids depend on what was staged before
_EMIT_ALL = r'''
import hashlib
from repro.apps import PROGRAMS
from repro.bench import BUNDLES
from repro.codegen import generate_cpp, generate_cuda, generate_scala
from repro.pipeline import compile_program
exact, flush_left = hashlib.sha256(), hashlib.sha256()
for app in sorted(BUNDLES):
    for target in ("distributed", "gpu"):     # the opt and gpu variants
        prog = compile_program(PROGRAMS[app](), target).program
        for gen in (generate_cpp, generate_cuda, generate_scala):
            src = gen(prog)
            exact.update(src.encode() + b"\0")
            flush_left.update("\n".join(
                line.lstrip() for line in src.split("\n")).encode() + b"\0")
print(exact.hexdigest(), flush_left.hexdigest())
'''

#: every line ``lstrip``ped — computed on the commit before the emitters
#: shared one generator walk (PR 23), with ``PYTHONPATH=<parent>/src``
#: under PYTHONHASHSEED 0/1/2
EMITTED_FLUSH_LEFT = \
    "b00db17888d025038252fea9b0d84e3d344fe66bf2c93aa936b959c5b1765781"
#: the exact bytes. That commit read 526dd5946ae1ec0d…933258a58c, and so did
#: the shared walk; the one recomputation is the CUDA indent fix of the same
#: PR (lines after a kernel were flush left), which moved no other byte
EMITTED = \
    "ce536bdc251d9398a2a247ad385734222dbc08dca295a3505375a92613f6c0de"


def test_emitted_sources_are_pinned():
    import os
    import subprocess
    import sys
    src_dir = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir] + [p for p in (env.get("PYTHONPATH"),) if p])
    out = subprocess.run([sys.executable, "-c", _EMIT_ALL], env=env,
                         check=True, capture_output=True, text=True).stdout
    exact, flush_left = out.split()
    assert flush_left == EMITTED_FLUSH_LEFT
    assert exact == EMITTED
