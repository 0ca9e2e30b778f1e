"""Tests for the simulated runtime: partition directories, machine
models, and the executor's scaling behavior."""

import pytest

from repro import frontend as F
from repro.core import types as T
from repro.core.values import deep_eq
from repro.data.datasets import gaussian_clusters
from repro.obs import MetricsRegistry
from repro.apps.kmeans import kmeans_oracle, kmeans_shared_program
from repro.pipeline import compile_program
from repro.runtime import (DELITE, DMLL_CPP, DMLL_PIN_ONLY, EC2_CLUSTER,
                           GPU_CLUSTER, NUMA_BOX, SPARK, ClusterSpec,
                           Directory, ExecOptions, simulate)


def ranges(d):
    return [d.range_of(p) for p in range(d.num_partitions)]


class TestDirectory:
    def test_even_split(self):
        d = Directory.even(10, 3)
        assert ranges(d) == [(0, 4), (4, 7), (7, 10)]
        assert sum(d.size_of(p) for p in range(3)) == 10

    def test_more_parts_than_elements(self):
        d = Directory.even(2, 8)
        assert d.num_partitions == 2

    def test_empty(self):
        d = Directory.even(0, 4)
        assert d.num_partitions == 1
        assert ranges(d) == [(0, 0)]


class TestClusterSpec:
    @pytest.mark.parametrize("nodes,network_gbs,match", [
        (0, 0.125, "nodes must be >= 1"),
        (3, 0.0, "needs network_gbs > 0"),
        (3, float("nan"), "needs network_gbs > 0")])
    def test_rejects_invalid_topology(self, nodes, network_gbs, match):
        # a multi-node cluster without a network would price every
        # broadcast, merge and shuffle of a distributed loop as free
        with pytest.raises(ValueError, match=match):
            ClusterSpec("bad", nodes, NUMA_BOX.node, network_gbs=network_gbs)


@pytest.fixture(scope="module")
def kmeans_sim():
    matrix, _ = gaussian_clusters(600, 8, k=4)
    clusters = matrix[:4]
    compiled = compile_program(kmeans_shared_program(), "distributed")
    inputs = {"matrix": matrix, "clusters": clusters}
    return compiled, inputs, matrix, clusters


class TestSimulator:
    def test_results_are_functionally_correct(self, kmeans_sim):
        compiled, inputs, matrix, clusters = kmeans_sim
        res = simulate(compiled, inputs, NUMA_BOX, DMLL_CPP)
        assert deep_eq(res.results[0], kmeans_oracle(matrix, clusters))

    def test_time_is_positive_and_decomposed(self, kmeans_sim):
        compiled, inputs, *_ = kmeans_sim
        res = simulate(compiled, inputs, NUMA_BOX, DMLL_CPP)
        assert res.total_seconds > 0
        assert res.loops
        assert abs(sum(l.time_s for l in res.loops) - res.total_seconds) < 1e-12

    def test_more_cores_is_faster(self, kmeans_sim):
        compiled, inputs, *_ = kmeans_sim
        t = {}
        for c in (1, 12, 48):
            res = simulate(compiled, inputs, NUMA_BOX, DMLL_CPP,
                           ExecOptions(cores=c, scale=800.0))
            t[c] = res.total_seconds
        assert t[1] > t[12] > t[48]

    def test_sequential_option(self, kmeans_sim):
        compiled, inputs, *_ = kmeans_sim
        seq = simulate(compiled, inputs, NUMA_BOX, DMLL_CPP,
                       ExecOptions(sequential=True, scale=800.0))
        par = simulate(compiled, inputs, NUMA_BOX, DMLL_CPP,
                       ExecOptions(scale=800.0))
        assert seq.total_seconds > par.total_seconds

    def test_numa_aware_beats_pin_only_at_four_sockets(self, kmeans_sim):
        """Fig. 7: partitioning adds bandwidth beyond one socket."""
        compiled, inputs, *_ = kmeans_sim
        aware = simulate(compiled, inputs, NUMA_BOX, DMLL_CPP,
                         ExecOptions(cores=48))
        pin = simulate(compiled, inputs, NUMA_BOX, DMLL_PIN_ONLY,
                       ExecOptions(cores=48))
        assert aware.total_seconds <= pin.total_seconds

    def test_spark_profile_is_slower(self, kmeans_sim):
        compiled, inputs, *_ = kmeans_sim
        dmll = simulate(compiled, inputs, NUMA_BOX, DMLL_CPP,
                        ExecOptions(cores=48))
        spark = simulate(compiled, inputs, NUMA_BOX, SPARK,
                         ExecOptions(cores=48))
        assert spark.total_seconds > 3 * dmll.total_seconds

    def test_cluster_distribution_scales(self, kmeans_sim):
        compiled, inputs, *_ = kmeans_sim
        one = simulate(compiled, inputs, EC2_CLUSTER, DMLL_CPP,
                       ExecOptions(cores=1, scale=800.0)).total_seconds
        # 20 machines x 4 cores beats 1 core even with comm overheads
        full = simulate(compiled, inputs, EC2_CLUSTER, DMLL_CPP,
                        ExecOptions(scale=800.0)).total_seconds
        assert full < one

    def test_partitioned_all_stencil_input_is_broadcast(self):
        # the map ranges Interval over xs (so it is distributed) and scans
        # all of ys per element: ys is broadcast to every machine once,
        # its whole payload (3 doubles)
        def fn(xs, ys):
            return xs.map(lambda x: ys.map(lambda y: x * y).sum())
        D = T.Coll(T.DOUBLE)
        compiled = compile_program(
            F.build(fn, [F.InputSpec("xs", D, True),
                         F.InputSpec("ys", D, True)]), "distributed")
        (info,) = compiled.report.loops.values()
        assert info.distributed and info.broadcasts == [
            compiled.program.inputs[1]]
        metrics = MetricsRegistry()
        res = simulate(compiled, {"xs": [1.0, 2.0, 3.0, 4.0],
                                  "ys": [0.5, 1.5, 2.5]},
                       EC2_CLUSTER, DMLL_CPP, ExecOptions(metrics=metrics))
        assert res.results == ([4.5, 9.0, 13.5, 18.0],)
        assert metrics.counters["executor.broadcast_bytes{loop=map}"] == \
            3 * T.DOUBLE.byte_size
        assert "executor.shuffle_bytes{loop=map}" not in metrics.counters

    def test_distributed_bucket_collect_is_a_shuffle(self):
        # a group-by over a partitioned input: every emitted element
        # (7 ints) leaves its machine unless its bucket lives there,
        # (machines - 1) / machines of the payload
        def fn(xs):
            return xs.group_by_value(lambda x: x % 3, lambda x: x)
        compiled = compile_program(
            F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True)]),
            "distributed")
        (info,) = compiled.report.loops.values()
        assert info.distributed and not info.broadcasts
        metrics = MetricsRegistry()
        simulate(compiled, {"xs": [1, 2, 3, 4, 5, 6, 7]}, EC2_CLUSTER,
                 DMLL_CPP, ExecOptions(metrics=metrics))
        machines = EC2_CLUSTER.nodes
        payload = 7 * T.INT.byte_size
        assert metrics.counters["executor.shuffle_bytes{loop=groupby}"] == \
            payload * (machines - 1) / machines
        assert not any(k.startswith("executor.broadcast_bytes")
                       for k in metrics.counters)

    def test_gpu_execution(self, kmeans_sim):
        compiled, inputs, *_ = kmeans_sim
        gpu = simulate(compiled, inputs, GPU_CLUSTER, DMLL_CPP,
                       ExecOptions(use_gpu=True, gpu_transposed=True))
        assert gpu.total_seconds > 0
        assert deep_eq(gpu.results[0],
                       simulate(compiled, inputs, GPU_CLUSTER,
                                DMLL_CPP).results[0])

    def test_gpu_transpose_helps(self, kmeans_sim):
        compiled, inputs, *_ = kmeans_sim
        plain = simulate(compiled, inputs, GPU_CLUSTER, DMLL_CPP,
                         ExecOptions(use_gpu=True, gpu_transposed=False))
        transposed = simulate(compiled, inputs, GPU_CLUSTER, DMLL_CPP,
                              ExecOptions(use_gpu=True, gpu_transposed=True))
        assert transposed.total_seconds < plain.total_seconds

    def test_breakdown_renders(self, kmeans_sim):
        from repro.obs.export import profile_report
        compiled, inputs, *_ = kmeans_sim
        res = simulate(compiled, inputs, NUMA_BOX, DMLL_CPP)
        text = profile_report(res)
        assert "TOTAL" in text and "time ms" in text
        assert all(l.name in text for l in res.loops)
