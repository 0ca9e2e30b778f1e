"""Hierarchical heterogeneous executor (§5) over simulated hardware.

Execution follows the paper's design: the cluster master partitions each
multiloop into chunks by combining the input stencils with the partition
directory ("move the computation to the data"); each machine further
chunks across sockets and cores with dynamic load balancing; GPU-targeted
loops run as device kernels.

The *work* is real: the program runs once on a functional engine, which
tallies it in one ``ExecStats``. The *clock* is modeled: every top-level
statement's dynamic record (cycles, bytes, per-iteration costs) is priced
on a machine model and a system profile (DESIGN.md §4). That split lets
one functional run answer "how long on 1/12/24/48 cores, on 20 EC2
nodes, on 4 GPUs" without re-running.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..analysis.partitioning import LoopDistInfo
from ..analysis.stencil import Stencil
from ..core import types as T
from ..core.interp import DefRecord, ExecStats
from ..core.ir import Def
from ..core.multiloop import GenKind, MultiLoop
from ..core.ops import InputSource
from ..pipeline import CompiledProgram
from .distarray import Directory
from .machine import (DMLL_CPP, GB, ClusterSpec, GPUSpec, SystemProfile)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.metrics import MetricsRegistry
    from ..obs.spans import SpanTable, Tracer

#: collections up to this size are replicated per memory region rather
#: than fetched remotely (the §4.2 replicate-vs-move policy)
_REPLICATION_LIMIT_BYTES = 128 * 1024 * 1024


@dataclass
class ExecOptions:
    """Knobs the benchmark harness turns."""

    cores: Optional[int] = None        # limit cores per the scaling sweep
    sequential: bool = False           # single-core (Table 2)
    use_gpu: bool = False
    gpu_transposed: bool = False       # device copy of 2D inputs transposed
    remote_read_cache_fraction: Optional[float] = None  # override locality
    #: workload scale: the functional run uses a subsampled dataset and all
    #: volume terms (cycles, bytes, footprints) are multiplied back up to
    #: the paper's dataset size. Fixed overheads are not scaled.
    scale: float = 1.0
    #: separate scale for data volumes when the compute volume grows faster
    #: than the data (e.g. k-means compute is n*k*d but data is n*d);
    #: defaults to ``scale``
    data_scale: Optional[float] = None
    #: observability (repro.obs): when a tracer is set every
    #: priced run produces a span table (run → loop → machine →
    #: socket/GPU chunk); when a metrics registry is set the executor
    #: feeds counters/histograms into it. Both default to off — the
    #: pricing paths then do no observability work at all.
    tracer: Optional["Tracer"] = None
    metrics: Optional["MetricsRegistry"] = None

    @property
    def dscale(self) -> float:
        return self.data_scale if self.data_scale is not None else self.scale


@dataclass
class LoopSim:
    """Simulated execution of one top-level statement."""

    name: str
    op_name: str
    iters: int
    distributed: bool
    workers: int
    compute_s: float = 0.0
    memory_s: float = 0.0
    comm_s: float = 0.0
    overhead_s: float = 0.0
    #: structured pricing detail (byte flows, mapping decisions) — only
    #: populated when observability is on; ``None`` on plain runs
    detail: Optional[Dict[str, Any]] = None

    @property
    def time_s(self) -> float:
        return max(self.compute_s, self.memory_s) + self.comm_s + self.overhead_s


@dataclass
class SimResult:
    results: Tuple[Any, ...]
    stats: ExecStats
    backend: str
    loops: List[LoopSim] = field(default_factory=list)
    total_seconds: float = 0.0
    fallbacks: List[Any] = field(default_factory=list)


def _deep_bytes(value: Any, tpe: T.Type) -> int:
    """Payload size of a runtime collection. Nested collections are summed
    exactly (ragged rows — adjacency lists — would be badly estimated from
    the first row alone)."""
    if isinstance(tpe, (T.Coll, T.KeyedColl)) and hasattr(value, "__len__"):
        n = len(value)
        if n == 0:
            return 0
        et = T.element_type(tpe)
        if isinstance(et, (T.Coll, T.KeyedColl)):
            return sum(max(_deep_bytes(row, et), 8) for row in value)
        return n * et.byte_size
    return tpe.byte_size


@dataclass
class RunCapture:
    """One functional execution's complete dynamic record.

    Capturing once and pricing many (cluster, profile, options)
    combinations is how the benchmark harness sweeps Figs. 6-8 without
    re-running the interpreter per configuration."""

    compiled: CompiledProgram
    results: Tuple[Any, ...]
    stats: ExecStats
    #: top-level loop sym id -> per-iteration cycle costs, as recorded by
    #: the engine that ran the program (``Interp.per_iter``)
    per_iter: Dict[int, List[float]]
    footprints: Dict[int, int]   # unscaled payload bytes per collection
    backend: str
    #: per-loop FallbackRecord list (vectorized backend only; empty means
    #: every loop executed vectorized)
    fallbacks: List[Any] = field(default_factory=list)
    #: host wall-clock seconds per top-level loop (``profile_host`` only;
    #: empty otherwise) — feeds calibration metrics, never simulated time
    host_loop_s: Dict[str, float] = field(default_factory=dict)


def capture_run(compiled: CompiledProgram, inputs: Dict[str, Any],
                backend: Optional[str] = None,
                profile_host: bool = False) -> RunCapture:
    """Execute once on the functional engine ``backend`` selects
    (``repro.backend.engine``); the vectorized default yields identical
    results/stats to the interpreter and records any per-loop
    interpreter fallbacks on the capture. ``profile_host``
    additionally records host wall-clock per top-level loop on the
    capture (``host_loop_s``) — real time for calibrating the cost
    model, kept strictly out of simulated pricing."""
    from ..backend import engine
    interp = engine(backend, per_iter=True, profile_host=profile_host)
    prog = compiled.program
    prepared = compiled.prepare_inputs(inputs)
    results = interp.eval_program(prog, prepared)
    stats = interp.stats
    fallbacks = list(getattr(interp, "fallbacks", ()))
    host_loop_s = dict(getattr(interp, "host_loop_s", ()) or {})

    footprints: Dict[int, int] = {}
    for d in prog.body.stmts:
        if isinstance(d.op, InputSource) and d.op.label in prepared:
            footprints[d.syms[0].id] = _deep_bytes(prepared[d.op.label],
                                                   d.syms[0].tpe)
    for rec in stats.def_records:
        if rec.sym_id not in footprints and rec.output_len:
            footprints[rec.sym_id] = max(rec.bytes_alloc, rec.output_len * 8)
    return RunCapture(compiled, results, stats, interp.per_iter, footprints,
                      interp.backend, fallbacks, host_loop_s)


class Simulator:
    """Prices one compiled program on one machine/profile combination."""

    def __init__(self, compiled: CompiledProgram, cluster: ClusterSpec,
                 profile: SystemProfile = DMLL_CPP,
                 options: Optional[ExecOptions] = None):
        self.compiled = compiled
        self.cluster = cluster
        self.profile = profile
        self.options = options or ExecOptions()

    # -- entry points ------------------------------------------------------

    def run(self, inputs: Dict[str, Any],
            backend: Optional[str] = None) -> SimResult:
        return self.price(capture_run(self.compiled, inputs,
                                      backend=backend))

    def price(self, cap: RunCapture) -> SimResult:
        """Price ``cap`` on this machine/profile. Everything one price
        needs is passed down the pass, none of it kept on the simulator."""
        opts = self.options
        footprints = {k: int(v * opts.dscale)
                      for k, v in cap.footprints.items()}
        tr, mx = opts.tracer, opts.metrics
        defs = {d.syms[0].id: d for d in self.compiled.program.body.stmts
                if d.syms}
        sim = SimResult(cap.results, cap.stats, backend=cap.backend,
                        fallbacks=list(cap.fallbacks))
        run: Optional["SpanTable"] = None
        if tr is not None:
            run = tr.begin_run(
                self.cluster.name, target=self.compiled.target,
                **self.cluster.describe(), **self.profile.describe(),
                cores=self.options.cores, sequential=self.options.sequential,
                use_gpu=self.options.use_gpu, scale=self.options.scale,
                backend=cap.backend)
        cursor = 0.0
        for rec in cap.stats.def_records:
            if not rec.is_loop:
                continue
            info = self.compiled.report.loops.get(rec.sym_id)
            stencils = self.compiled.stencils.get(rec.sym_id)
            loop_def = defs.get(rec.sym_id)
            ls = self._price_loop(rec, info, stencils, loop_def,
                                  cap.per_iter.get(rec.sym_id), footprints,
                                  run is not None, mx)
            sim.loops.append(ls)
            if mx is not None:
                mx.inc("executor.loops_priced")
                mx.observe("executor.loop_seconds", ls.time_s, loop=ls.name)
            if run is not None:
                self._emit_loop_span(run, cursor, ls, rec, info, stencils,
                                     loop_def)
            cursor += ls.time_s
        sim.total_seconds = sum(l.time_s for l in sim.loops)
        if run is not None:
            run.dur_s[0] = sim.total_seconds
            run.attrs[0].update(total_seconds=sim.total_seconds,
                                loops=len(sim.loops))
        if mx is not None:
            mx.gauge("executor.total_seconds", sim.total_seconds)
            mx.gauge("interp.loop_iterations", cap.stats.loop_iterations)
            mx.gauge("interp.total_cycles", cap.stats.total_cycles)
            for fb in cap.fallbacks:
                mx.inc("backend.fallback", loop=str(fb.loop),
                       reason=fb.reason)
        return sim

    # -- observability ---------------------------------------------------

    def _emit_loop_span(self, run: "SpanTable", t0: float, ls: LoopSim,
                        rec: DefRecord, info: Optional[LoopDistInfo],
                        stencils, loop_def: Optional[Def]) -> None:
        """One loop's rows of the run's table: the loop span carries the
        full pricing record; the rows under it mirror the §5 hierarchy —
        machine-level chunks (stencil ∩ partition directory), then
        socket chunks or the GPU kernel, each on its machine's track."""
        detail = ls.detail or {}
        attrs = {"op": ls.op_name, "iters": ls.iters, "workers": ls.workers,
                 "distributed": ls.distributed,
                 "compute_s": ls.compute_s, "memory_s": ls.memory_s,
                 "comm_s": ls.comm_s, "overhead_s": ls.overhead_s}
        if loop_def is not None and isinstance(loop_def.op, MultiLoop):
            attrs["generators"] = [g.kind.name for g in loop_def.op.gens]
            layouts = self.compiled.report.layouts
            attrs["layouts"] = {str(s): layouts[s].value
                                for s in loop_def.syms if s in layouts}
        if stencils is not None:
            attrs["stencils"] = {str(s): st.value
                                 for s, st in stencils.reads.items()}
        if info is not None:
            attrs["driving"] = (str(info.driving)
                                if info.driving is not None else None)
            attrs["broadcasts"] = [str(s) for s in info.broadcasts]
            attrs["remote_random"] = [str(s) for s in info.remote_random]
        attrs.update(detail)
        run.add(1, ls.name, "loop", t0, ls.time_s, attrs, 1, 0)

        # the parallel region: machine chunks, then socket/GPU chunks
        par = max(ls.compute_s, ls.memory_s)
        if par <= 0.0:
            return
        n_mach = int(detail.get("machines_used", detail.get("machines", 1)))
        chunks = Directory.even(max(ls.iters, 1), max(1, n_mach))
        gpu = detail.get("gpu")
        sockets = int(detail.get("sockets", 1))
        cores = int(detail.get("cores_used", detail.get("cores", 1)))
        for m in range(chunks.num_partitions):
            lo, hi = chunks.range_of(m)
            name = f"{ls.name}/m{m}"
            run.add(2, name, "machine", t0, par,
                    {"machine": m, "iter_lo": lo, "iter_hi": hi}, 1, m + 1)
            if gpu is not None:
                run.add(3, f"{name}/kernel", "gpu", t0, par,
                        {"machine": m, "device": gpu}, 1, m + 1)
            else:
                per_socket = Directory.even(max(cores, 1), sockets)
                for sk in range(per_socket.num_partitions):
                    run.add(3, f"{name}/s{sk}", "socket", t0, par,
                            {"machine": m, "socket": sk,
                             "cores": per_socket.size_of(sk)}, 1, m + 1)

    def _worker_layout(self) -> Tuple[int, int, int]:
        """(machines, sockets_per_machine, cores_per_machine) actually used."""
        node = self.cluster.node
        if self.options.sequential:
            return 1, 1, 1
        cores = self.options.cores or node.cores
        cores = max(1, min(cores, node.cores))
        sockets = min(node.sockets, math.ceil(cores / node.socket.cores))
        return self.cluster.nodes, sockets, cores

    # -- pricing ---------------------------------------------------------

    def _price_loop(self, rec: DefRecord, info: Optional[LoopDistInfo],
                    stencils, loop_def: Optional[Def],
                    per_iter: Optional[List[float]],
                    footprints: Dict[int, int], traced: bool,
                    mx: Optional["MetricsRegistry"]) -> LoopSim:
        opts = self.options
        prof = self.profile
        node = self.cluster.node
        machines, sockets, cores = self._worker_layout()
        distributed = bool(info and info.distributed) and machines > 1
        if not distributed:
            machines = 1

        scale = opts.scale
        cycles = (prof.effective_cycles(rec.compute_cycles,
                                        rec.overhead_cycles)
                  + rec.elements_emitted * prof.alloc_cycle_cost) * scale
        bytes_read = rec.bytes_read * opts.dscale
        iters = max(rec.size, 1)
        dram = self._dram_traffic(rec, stencils, footprints, iters,
                                  bytes_read)

        ls = LoopSim(rec.name, rec.op_name, rec.size, distributed,
                     machines * cores)
        if traced:
            ls.detail = {"machines": machines, "sockets": sockets,
                         "cores": cores, "dram_bytes": dram,
                         "bytes_streamed": bytes_read,
                         "cycles": cycles}

        nested_parallel = self._has_nested_loops(loop_def)
        if opts.use_gpu and loop_def is not None and node.gpu is not None:
            self._price_gpu(ls, rec, loop_def, cycles, bytes_read, machines,
                            stencils, info)
        else:
            self._price_cpu(ls, rec, cycles, dram, machines, sockets,
                            cores, per_iter, info, footprints,
                            nested_parallel)

        # communication: broadcasts, shuffles, merges, remote reads
        self._price_comm(ls, rec, info, stencils, loop_def, machines,
                         sockets, footprints, bytes_read, mx)

        # dispatch: tasks start in parallel; the driver pays a small serial
        # component that grows with the worker count
        per_machine_workers = max(1, ls.workers // max(1, machines))
        ls.overhead_s += prof.per_loop_overhead_us * 1e-6
        ls.overhead_s += (prof.task_overhead_us * 1e-6
                          * (1.0 + 0.1 * per_machine_workers))
        return ls

    def _dram_traffic(self, rec: DefRecord, stencils,
                      footprints: Dict[int, int], iters: int,
                      measured_bytes: float) -> float:
        """Memory-controller traffic of one loop: each consumed collection
        streams through DRAM once per pass (caches absorb repeated touches
        within a pass); an All-stencil input is re-scanned every iteration
        unless it fits in the last-level cache — but never more than the
        loop actually touched (condition-guarded scans skip rows, e-g.
        untransformed k-means reads each row once across all k passes).
        Writes stream out once."""
        llc = (self.cluster.node.socket.llc_bytes
               * self.cluster.node.sockets)
        traffic = rec.bytes_alloc * self.options.dscale
        if stencils is None or not stencils.reads:
            return traffic
        for sym, st in stencils.reads.items():
            fp = footprints.get(sym.id, 0)
            if st is Stencil.ALL and fp > llc:
                traffic += min(fp * iters, measured_bytes)
            else:
                traffic += fp
        return traffic

    def _has_nested_loops(self, loop_def: Optional[Def]) -> bool:
        """A loop whose body contains further multiloops exposes nested
        parallelism: the hierarchical runtime splits the inner loops across
        the remaining cores (§5/§6.3), so the outer trip count does not cap
        the worker count."""
        if loop_def is None or not isinstance(loop_def.op, MultiLoop):
            return False
        return any(isinstance(dd.op, MultiLoop)
                   for g in loop_def.op.gens
                   for b in g.blocks()
                   for dd in b.stmts)

    def _price_cpu(self, ls: LoopSim, rec: DefRecord, cycles: float,
                   bytes_read: int, machines: int, sockets: int,
                   cores: int, per_iter: Optional[List[float]],
                   info: Optional[LoopDistInfo], footprints: Dict[int, int],
                   nested_parallel: bool) -> None:
        node = self.cluster.node
        prof = self.profile
        rate = prof.effective_rate(node.socket)

        # chunk across machines (even by directory), then dynamic within.
        # A *flat* loop exposes at most ``iters``-way parallelism (§6: the
        # untransformed k-means "stops scaling due to the more limited
        # exposed parallelism"); loops with nested multiloops re-split the
        # inner work across idle cores (nested parallelism, §6.3).
        iters = max(rec.size, 1)
        if not nested_parallel:
            machines = max(1, min(machines, iters))
            cores_eff = max(1, min(cores, -(-iters // machines)))
        else:
            cores_eff = cores
        chunk_cycles = cycles / machines
        # the longest single iteration bounds dynamic balancing — unless
        # the iteration itself is a nested parallel region that re-splits
        max_iter = (max(per_iter) if per_iter and not nested_parallel
                    else 0.0)
        imbalance = self._machine_imbalance(per_iter, machines)
        compute = (chunk_cycles * imbalance) / (cores_eff * rate) \
            + max_iter / rate
        ls.compute_s = compute

        # memory: where do the bytes live?
        # - loops over *partitioned* data stream from every socket only when
        #   the arrays were physically split (numa_aware) and the stencil is
        #   Interval; under pin-only the input lives in one socket's memory
        #   and its controller caps the loop (the Fig. 7 plateau);
        # - loops over thread-local intermediates are local to their socket
        #   whenever threads are pinned ("pinning is sufficient", §6.1).
        chunk_bytes = bytes_read / machines
        socket_bw = node.socket.mem_bandwidth_gbs * GB
        reads_partitioned = bool(info and info.stencils)
        interval_driven = bool(
            info and any(s is Stencil.INTERVAL for s in info.stencils.values()))
        # Unknown-stencil collections small enough to replicate per socket
        # (§4.2) are local after replication — e.g. the Gibbs factor graph
        replicated = bool(
            info and info.remote_random and not interval_driven
            and all(footprints.get(s.id, 0) <= _REPLICATION_LIMIT_BYTES
                    for s in info.remote_random))
        if not reads_partitioned:
            bw = (sockets if prof.pinned else 1.0) * socket_bw
        elif prof.numa_aware and prof.pinned and (interval_driven or replicated):
            bw = sockets * socket_bw
        elif prof.pinned and replicated:
            bw = sockets * socket_bw  # replicas live in thread-local heaps
        elif prof.pinned:
            bw = socket_bw * (1.0 + 0.15 * (sockets - 1))  # QPI adds a little
        else:
            bw = socket_bw * 0.8  # first-touch on one socket
        ls.memory_s = chunk_bytes / bw
        if not prof.pinned and sockets > 1:
            # unpinned threads migrate across sockets: cache refills and
            # scheduler interference grow with the socket count
            ls.compute_s *= 1.0 + 0.3 * (sockets - 1)
        if ls.detail is not None:
            ls.detail.update(
                machines_used=machines, cores_used=cores_eff,
                nested_parallel=nested_parallel, imbalance=imbalance,
                mem_bandwidth_gbs=bw / GB, bytes_local=chunk_bytes,
                replicated_per_socket=replicated,
                interval_driven=interval_driven)

    def _machine_imbalance(self, per_iter: Optional[List[float]],
                           machines: int) -> float:
        """max-chunk/mean-chunk across machine-level static chunks."""
        if not per_iter or machines <= 1:
            return 1.0
        n = len(per_iter)
        if n < machines:
            return 1.0
        d = Directory.even(n, machines)
        sums = []
        for p in range(d.num_partitions):
            lo, hi = d.range_of(p)
            sums.append(sum(per_iter[lo:hi]))
        mean = sum(sums) / len(sums)
        return (max(sums) / mean) if mean > 0 else 1.0

    def _price_gpu(self, ls: LoopSim, rec: DefRecord, loop_def: Def,
                   cycles: float, bytes_read: int, machines: int,
                   stencils, info: Optional[LoopDistInfo]) -> None:
        gpu: GPUSpec = self.cluster.node.gpu  # type: ignore[assignment]
        chunk_cycles = cycles / machines
        chunk_bytes = bytes_read / machines

        vector_reduce = self._has_vector_reduce(loop_def)
        uncoalesced = (self._reads_matrix(stencils)
                       and not self.options.gpu_transposed)
        # data-dependent gathers defeat coalescing regardless of layout
        # (§6.3: the GPU "is limited by the random memory accesses")
        random_gather = bool(info is not None and info.remote_random)

        compute = chunk_cycles / (gpu.compute_rate_gops * GB)
        mem = chunk_bytes / (gpu.mem_bandwidth_gbs * GB)
        if vector_reduce:
            mem *= gpu.vector_reduce_penalty
            compute *= gpu.vector_reduce_penalty * 0.5
        if uncoalesced:
            mem *= gpu.uncoalesced_penalty
        if random_gather:
            mem *= gpu.uncoalesced_penalty
        ls.compute_s = compute
        ls.memory_s = mem
        ls.overhead_s += gpu.kernel_launch_us * 1e-6
        if ls.detail is not None:
            ls.detail.update(
                gpu=gpu.name, machines_used=machines,
                vector_reduce=vector_reduce, uncoalesced=uncoalesced,
                random_gather=random_gather,
                kernel_launch_us=gpu.kernel_launch_us)

    def _has_vector_reduce(self, d: Def) -> bool:
        assert isinstance(d.op, MultiLoop)
        for g in d.op.gens:
            if g.kind in (GenKind.REDUCE, GenKind.BUCKET_REDUCE):
                if isinstance(g.value.result_type, (T.Coll, T.KeyedColl)):
                    return True
        return False

    def _reads_matrix(self, stencils) -> bool:
        if stencils is None:
            return False
        return any(isinstance(s.tpe, T.Coll) and
                   isinstance(T.element_type(s.tpe), (T.Coll, T.KeyedColl))
                   for s in stencils.reads)

    def _price_comm(self, ls: LoopSim, rec: DefRecord,
                    info: Optional[LoopDistInfo], stencils,
                    loop_def: Optional[Def], machines: int, sockets: int,
                    footprints: Dict[int, int], bytes_read: int,
                    mx: Optional["MetricsRegistry"]) -> None:
        prof = self.profile
        node = self.cluster.node
        rate = prof.effective_rate(node.socket)
        comm = 0.0

        if info is not None and ls.distributed and machines > 1:
            # a loop is distributed only across several nodes, and a
            # multi-node ClusterSpec always has a network
            net_bw = self.cluster.network_gbs * GB
            # broadcast All/Const partitioned inputs to every machine
            for s in info.broadcasts:
                nbytes = footprints.get(s.id, 0)
                comm += nbytes / net_bw
                comm += nbytes * prof.ser_cycles_per_byte / rate
                # a float in the detail and the trace; only the merge
                # flow is an int
                _flow(ls, mx, "broadcast", float(nbytes))

            # dynamic remote fetches for Unknown accesses
            for s in info.remote_random:
                nbytes = footprints.get(s.id, 0)
                frac = self._remote_fraction(machines, nbytes)
                moved = bytes_read * frac
                comm += moved / net_bw / machines
                comm += moved * prof.ser_cycles_per_byte / rate / machines
                comm += self.cluster.network_latency_us * 1e-6 * machines
                _flow(ls, mx, "network", moved, frac)

            # merge partial reduction results across machines
            if loop_def is not None:
                out_bytes = sum(
                    footprints.get(s.id, rec.output_len * 8)
                    for s, g in zip(loop_def.syms, loop_def.op.gens)
                    if g.kind in (GenKind.REDUCE, GenKind.BUCKET_REDUCE))
                if out_bytes:
                    hops = max(1, int(math.log2(machines)))
                    comm += out_bytes * hops / net_bw
                    comm += out_bytes * prof.ser_cycles_per_byte / rate
                    _flow(ls, mx, "merge", out_bytes * hops)

            # a distributed BucketCollect is a shuffle of the whole payload
            if loop_def is not None and any(
                    g.kind is GenKind.BUCKET_COLLECT for g in loop_def.op.gens):
                payload = rec.bytes_alloc * self.options.dscale
                moved = payload * (machines - 1) / machines
                comm += moved / (net_bw * machines)
                comm += moved * 2 * prof.ser_cycles_per_byte / rate / machines
                _flow(ls, mx, "shuffle", moved)

        # NUMA box, Unknown accesses on a single machine (graph apps):
        # cache misses land on a remote socket whether the array is
        # partitioned (1-1/s of misses remote) or lives on one socket
        # (the other sockets' threads always miss remotely) — comparable
        # either way, so charged for every profile
        # §4.2 gives the runtime two options for data-dependent accesses —
        # "fully replicate the collection or detect non-local accesses and
        # move data between partitions dynamically". Small collections (a
        # factor graph's adjacency) are replicated per socket once; big
        # ones (a social graph) are fetched per miss at remote bandwidth.
        if (info is not None and self.cluster.nodes == 1 and sockets > 1
                and info.remote_random):
            for s in info.remote_random:
                nbytes = footprints.get(s.id, 0)
                bw = (node.socket.mem_bandwidth_gbs * GB
                      * node.numa_remote_factor * max(1, sockets - 1))
                if nbytes <= _REPLICATION_LIMIT_BYTES:
                    # replicated once per socket at startup, amortized over
                    # the run (like input loading / device transfer)
                    if ls.detail is not None:
                        ls.detail.setdefault("replicated", []).append(str(s))
                    if mx is not None:
                        mx.inc("executor.replication_decisions")
                        mx.inc("executor.replicated_bytes", nbytes,
                               loop=ls.name)
                    continue
                frac = self._remote_fraction(sockets, nbytes)
                remote = bytes_read * frac
                ls.memory_s += remote / bw
                _flow(ls, mx, "remote_numa", remote, frac)

        ls.comm_s += comm

    def _remote_fraction(self, parts: int, footprint_bytes: int) -> float:
        """Fraction of random reads that leave the local partition: uniform
        over partitions, discounted by LLC residency (triangle counting's
        working set 'tends to fit in cache, hiding NUMA issues')."""
        if parts <= 1:
            return 0.0
        if self.options.remote_read_cache_fraction is not None:
            hit = self.options.remote_read_cache_fraction
        else:
            llc = self.cluster.node.socket.llc_bytes
            hit = min(1.0, llc / footprint_bytes) if footprint_bytes else 1.0
        return (parts - 1) / parts * (1.0 - hit)


#: a byte flow's ``LoopSim.detail`` key suffix -> its metrics counter
_FLOW_COUNTERS = {"broadcast": "executor.broadcast_bytes",
                  "network": "executor.remote_fetch_bytes",
                  "merge": "executor.merge_bytes",
                  "shuffle": "executor.shuffle_bytes",
                  "remote_numa": "executor.numa_remote_bytes"}


def _flow(ls: LoopSim, mx: Optional["MetricsRegistry"], kind: str,
          nbytes: float, remote_fraction: Optional[float] = None) -> None:
    """Record one byte flow of ``ls``: add it to the traced detail's
    ``bytes_<kind>`` and to its counter. A flow of remote reads also
    records the fraction that left the partition and counts one fetch
    decision."""
    if ls.detail is not None:
        key = "bytes_" + kind
        ls.detail[key] = ls.detail.get(key, 0) + nbytes
        if remote_fraction is not None:
            ls.detail["remote_fraction"] = remote_fraction
    if mx is not None:
        mx.inc(_FLOW_COUNTERS[kind], nbytes, loop=ls.name)
        if remote_fraction is not None:
            mx.inc("executor.remote_fetch_decisions")


def simulate(compiled: CompiledProgram, inputs: Dict[str, Any],
             cluster: ClusterSpec, profile: SystemProfile = DMLL_CPP,
             options: Optional[ExecOptions] = None) -> SimResult:
    """One-call façade: run functionally and price on the machine model."""
    return Simulator(compiled, cluster, profile, options).run(inputs)
