"""Command-line inspector: dump a benchmark application's IR at any
pipeline stage, its analyses, its generated backend code, the per-pass
compilation trace — or run it on the simulated hardware and profile it.

Usage::

    python -m repro.tools --list
    python -m repro.tools kmeans                 # optimized IR
    python -m repro.tools kmeans --stage staged  # as written
    python -m repro.tools logreg --target gpu --emit cuda
    python -m repro.tools kmeans --trace --report --verify-each
    python -m repro.tools kmeans --profile --backend numpy --trace-out t.json
    python -m repro.tools explain kmeans --explain-diff no-fusion
    python -m repro.tools serve-sim kmeans q1 --rate 200 --machines numa*2
    python -m repro.tools slo-report kmeans --spec examples/slo_serving.json
    python -m repro.tools analyze kmeans --critical-path   # or --diff A B

Without a subcommand the app is staged once and compiled once with the
flags given, and each view asked for reads that compile, in this order:
the pass table (--trace), the report (--report), the observed run
(--profile, --metrics, --*-out: the compile priced on the app's bundled
dataset), the program (--emit; IR when no other view is asked for). A
flag that no requested view or ``analyze`` mode reads is bad usage, as
is anything given with --list. Under --json stdout is one JSON document.

Exit codes (repo-wide convention): 0 ok, 1 check failed, 2 bad usage
(one line on stderr); a reader that closes stdout early (``| head``)
ends the run with exit 1 and nothing written to stderr.
"""

from __future__ import annotations

import argparse
import json as _json
import math
import os
import sys

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: the arguments more than one parser takes, each declared here once
_FLAGS = {
    "app": dict(nargs="?", help="application name (see --list)"),
    "--target": dict(choices=("cpu", "distributed", "gpu"),
                     help="compile target (default: distributed)"),
    "--backend": dict(choices=("reference", "numpy"),
                      help="functional engine of the run (default: "
                           "$REPRO_BACKEND or numpy, the engine that "
                           "lane-packs; reference is the oracle)"),
    "--json": dict(action="store_true",
                   help="print one JSON document instead of a table"),
    "--metrics": dict(action="store_true",
                      help="print the run's metrics registry"),
    "--trace-out": dict(metavar="FILE.json",
                        help="write a Chrome-trace JSON of the run"),
    "--flame-out": dict(metavar="FILE.txt",
                        help="write a collapsed-stack flamegraph of the run"),
    "--metrics-out": dict(metavar="FILE.prom",
                          help="write the metrics in Prometheus text format"),
}
_EXPORTS = ("--trace-out", "--flame-out", "--metrics-out")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add(ap, *names: str) -> None:
    for name in names:
        ap.add_argument(name, **_FLAGS[name])


def _parse(ap, argv):
    """``(args, given)``: ``ap``'s parse of ``argv``, and the options
    ``argv`` names, at their default value too."""
    opts = [a for a in ap._actions
            if a.option_strings and a.default is not argparse.SUPPRESS]
    # an option argv names parses to a value; one it does not stays None
    args = ap.parse_args(argv, argparse.Namespace(
        **dict.fromkeys(a.dest for a in opts)))
    given = []
    for a in opts:
        if getattr(args, a.dest) is None:
            setattr(args, a.dest, a.default)
        else:
            given.append(a.option_strings[0])
    return args, given


def _check_outputs(args, *flags: str) -> int:
    """EXIT_USAGE, after one line naming the flag and the path, when an
    output file cannot be written there; checked before the run."""
    for flag in flags:
        path = getattr(args, flag[2:].replace("-", "_"))
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent):
            why = f"directory {parent} does not exist"
        elif os.path.isdir(path):
            why = "it is a directory"
        elif not os.access(parent, os.W_OK):
            why = f"directory {parent} is not writable"
        else:
            continue
        print(f"error: {flag} {path}: cannot write the file: {why}",
              file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _note(args, line: str) -> None:
    """A ``wrote FILE`` line; on stderr under ``--json``, so that stdout
    stays one JSON document."""
    print(line, file=sys.stderr if getattr(args, "json", False)
          else sys.stdout)


def _write_exports(args, tracer, metrics, trace_hint: str = "") -> None:
    """The ``--trace-out`` / ``--flame-out`` / ``--metrics-out`` tail of an
    observed run."""
    from .obs import write_chrome_trace, write_collapsed, write_prometheus
    if args.trace_out:
        write_chrome_trace(args.trace_out, tracer)
        _note(args, f"wrote Chrome trace to {args.trace_out}{trace_hint}")
    if args.flame_out:
        write_collapsed(args.flame_out, tracer)
        _note(args, f"wrote flamegraph stacks to {args.flame_out}")
    if args.metrics_out:
        write_prometheus(args.metrics_out, metrics)
        _note(args, f"wrote Prometheus metrics to {args.metrics_out}")


def _known_app(app, who: str) -> bool:
    """Whether ``app`` is in the catalogue; one line on stderr if not."""
    from .apps import PROGRAMS
    if app in PROGRAMS:
        return True
    print(f"{who} requires an application name; see --list" if app is None
          else f"unknown app {app!r}; use --list", file=sys.stderr)
    return False


def _check_bundled(apps, who: str) -> int:
    """EXIT_USAGE, after one line, unless every app has a dataset."""
    from .bench import BUNDLES
    bad = [a for a in apps if a not in BUNDLES]
    if not bad:
        return EXIT_OK
    print(f"{who} needs a bundled dataset; none for {', '.join(bad)} "
          f"(apps with one: {', '.join(sorted(BUNDLES))})", file=sys.stderr)
    return EXIT_USAGE


def _load_slo(path: str):
    """The ``SLOSpec`` in ``path``, or ``None`` after a one-line error."""
    from .obs.slo import SLOSpec
    try:
        return SLOSpec.load(path)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load SLO spec {path}: {exc}", file=sys.stderr)
        return None


def _emit(prog, emit: str) -> str:
    if emit == "ir":
        from .core.pretty import pretty
        return pretty(prog)
    from .codegen import generate_cpp, generate_cuda, generate_scala
    return {"cpp": generate_cpp, "cuda": generate_cuda,
            "scala": generate_scala}[emit](prog)


def _run_observed(args, compiled, backend: str, backend_source: str) -> None:
    """--profile / --metrics / --*-out: price ``compiled`` on the app's
    bundled dataset through the simulated runtime, observed."""
    from .bench import get_bundle
    from .obs import MetricsRegistry, Tracer, profile_report
    from .runtime import GPU_CLUSTER, NUMA_BOX, single_node
    from .runtime.executor import capture_run

    bundle = get_bundle(args.app)
    gpu = args.target == "gpu"
    tracer = Tracer()
    metrics = MetricsRegistry()
    cluster = single_node(GPU_CLUSTER) if gpu else NUMA_BOX
    sim = bundle.price(compiled,
                       capture_run(compiled, bundle.inputs, backend=backend),
                       cluster, use_gpu=gpu, gpu_transposed=gpu,
                       tracer=tracer, metrics=metrics)
    tracer.last_run.name[0] = f"{args.app}:{cluster.name}"

    if args.profile:
        print(profile_report(
            sim, title=f"{args.app} on {cluster.name} "
                       f"({'GPU' if gpu else 'CPU'}), simulated time"))
        # name the backend AND where the choice came from, so a CI
        # matrix leg with a broken REPRO_BACKEND can't pass unnoticed
        print(f"execution backend: {sim.backend} "
              f"(resolved from {backend_source})")
        if sim.backend != "reference":
            for fb in sim.fallbacks:
                print(f"  fallback {fb.loop} ({fb.op}): {fb.reason}")
            if not sim.fallbacks:
                print("  all loops vectorized (no interpreter fallbacks)")
        for d in compiled.diagnostics:
            print(d.render())
    if args.metrics:
        print(metrics.render())
    _write_exports(args, tracer, metrics, "; load it in chrome://tracing "
                                          "or https://ui.perfetto.dev")


def _explain_compile(app: str, target: str, variant: str = None):
    """Compile ``app`` with a shared ledger scope covering the whole
    pipeline plus the backend's static plan; return the ledger."""
    from .apps import PROGRAMS
    from .backend.vectorize import plan_program
    from .obs.provenance import DecisionLedger, ledger_scope
    from .pipeline import compile_program
    prog = PROGRAMS[app]()
    led = DecisionLedger()
    with ledger_scope(led):
        compiled = compile_program(
            prog, target,
            apply_nested_transforms=(variant != "no-transforms"),
            fuse=(variant != "no-fusion"))
        led.begin_pass("numpy-plan", "backend")
        plan_program(compiled.program)
    return led


def explain_main(argv=None) -> int:
    """``repro explain <app>``: render the compile's decision provenance."""
    ap = _Parser(
        prog="repro.tools explain",
        description="Explain every compiler/backend decision taken for an "
                    "application: fusions, Fig. 3 transforms, stencils, "
                    "layouts and the NumPy backend's plan-vs-fallback.")
    _add(ap, "app", "--json", "--target")
    ap.set_defaults(target="distributed")
    ap.add_argument("--loop", default=None, metavar="L",
                    help="filter to decisions about one loop/symbol "
                         "(prefix match, ids optional: 'cs' matches cs42); "
                         "the --json digest stays the full ledger's")
    ap.add_argument("--explain-diff", choices=("no-fusion", "no-transforms"),
                    default=None, metavar="VARIANT",
                    help="compile twice (default pipeline vs the ablated "
                         "VARIANT) and show exactly which decisions "
                         "diverge")
    args = ap.parse_args(argv)
    if not _known_app(args.app, "explain"):
        return EXIT_USAGE
    if args.explain_diff and (args.json or args.loop is not None):
        print("--explain-diff prints a text diff of whole ledgers; it takes "
              "neither --json nor --loop", file=sys.stderr)
        return EXIT_USAGE

    from .obs.provenance import diff_ledgers
    led = _explain_compile(args.app, args.target)
    if args.explain_diff:
        other = _explain_compile(args.app, args.target,
                                 variant=args.explain_diff)
        print(diff_ledgers(led, other, "default", args.explain_diff))
        return EXIT_OK
    if args.json:
        doc = led.to_json()
        if args.loop is not None:
            doc["decisions"] = [d.to_dict() for d in led.for_loop(args.loop)]
        print(_json.dumps(doc, indent=2, default=str))
    else:
        print(led.render(loop=args.loop,
                         title=f"decision provenance: {args.app} "
                               f"(target {args.target})"))
    if len(led) == 0:
        # an instrumented compile that records nothing means the
        # provenance layer is broken — fail loudly, CI smoke relies on it
        print("error: compile produced an empty decision ledger",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _add_fleet_args(ap) -> None:
    """Arrival, batching and fleet flags shared by ``serve-sim``,
    ``slo-report`` and ``analyze --requests``."""
    ap.add_argument("--rate", type=float, default=None, metavar="RPS",
                    help="open-loop Poisson arrival rate in req/s "
                         "(default: closed loop)")
    ap.add_argument("--batch", type=int, default=8,
                    help="max requests one lane-packed execution serves "
                         "(default %(default)s)")
    ap.add_argument("--max-wait-ms", type=float, default=20.0,
                    help="admission window: max time a request waits for "
                         "lane-mates (default %(default)s)")
    ap.add_argument("--seed", type=int, default=0,
                    help="traffic RNG seed (same seed, same report)")
    ap.add_argument("--policy",
                    choices=("round-robin", "least-loaded", "fastest"),
                    default="round-robin",
                    help="placement policy across the machine fleet")
    ap.add_argument("--machines", default="numa", metavar="SPEC",
                    help='machine fleet, e.g. "numa*2,gpunode" '
                         "(default %(default)s)")


def _add_traffic_args(ap) -> None:
    """Traffic/fleet flags shared by ``serve-sim`` and ``slo-report``."""
    ap.add_argument("apps", nargs="*",
                    help="served applications (need bundled datasets)")
    ap.add_argument("--requests", type=int, default=64,
                    help="total requests (default %(default)s)")
    ap.add_argument("--clients", type=int, default=8,
                    help="closed-loop concurrent clients "
                         "(default %(default)s)")
    ap.add_argument("--think-ms", type=float, default=0.0,
                    help="closed-loop think time between requests")
    ap.add_argument("--payloads", type=int, default=1,
                    help="distinct logical payloads per app (tenants); "
                         "only equal payloads lane-pack")
    _add_fleet_args(ap)
    _add(ap, "--backend")
    # chaos / resilience (all off by default: a plain run stays
    # byte-identical to one where these flags never existed)
    ap.add_argument("--faults", metavar="PLAN.json",
                    help="seeded fault-injection plan "
                         "(see examples/faults_outage.json)")
    ap.add_argument("--timeout-ms", type=float, default=None,
                    help="per-request deadline in simulated ms; late "
                         "attempts are rejected, never silently served")
    ap.add_argument("--retry", type=int, default=None, metavar="N",
                    help="max attempts per request; enables retries "
                         "with seeded exponential backoff")
    ap.add_argument("--retry-budget", type=int, default=64,
                    help="global cap on extra attempts across the run "
                         "(default %(default)s)")
    ap.add_argument("--hedge-ms", type=float, default=None,
                    help="launch one hedged duplicate if a dispatched "
                         "request is still unfinished after this long")
    ap.add_argument("--shed-depth", type=int, default=None,
                    help="admission-queue depth above which arrivals "
                         "are shed with a typed rejection")
    ap.add_argument("--breaker", action="store_true",
                    help="per-machine circuit breakers")
    ap.add_argument("--degrade-after", type=int, default=3,
                    help="consecutive kernel faults before an app degrades "
                         "to the reference path (default %(default)s)")


def _check_traffic_args(args, prog: str) -> int:
    if not args.apps:
        print(f"{prog} requires at least one application name",
              file=sys.stderr)
        return EXIT_USAGE
    if _check_bundled(args.apps, prog) != EXIT_OK:
        return EXIT_USAGE
    # (flag, value, least value, whether the least is allowed); each
    # comparison is written so that NaN fails it
    a = args
    for flag, val, low, closed in (
            ("--requests", a.requests, 1, True), ("--batch", a.batch, 1, True),
            ("--payloads", a.payloads, 1, True), ("--retry", a.retry, 1, True),
            ("--shed-depth", a.shed_depth, 1, True),
            ("--retry-budget", a.retry_budget, 0, True),
            ("--degrade-after", a.degrade_after, 1, True),
            ("--think-ms", a.think_ms, 0, True),
            ("--max-wait-ms", a.max_wait_ms, 0, True),
            ("--rate", a.rate, 0, False),
            ("--timeout-ms", a.timeout_ms, 0, False),
            ("--hedge-ms", a.hedge_ms, 0, False)):
        if val is not None and not (low <= val < math.inf if closed
                                    else low < val < math.inf):
            print(f"{flag} must be finite and {'>=' if closed else '>'} {low}",
                  file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def _resilience_of(args):
    """``(FaultPlan, ResilienceConfig)`` from parsed traffic flags —
    both ``None`` when the matching flags are absent, so plain runs
    take the exact pre-chaos code path. Raises ``ValueError`` on an
    unreadable or malformed fault plan."""
    from .serve import (BreakerConfig, FaultPlan, ResilienceConfig,
                        RetryPolicy)
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.load(args.faults)
        except OSError as exc:
            raise ValueError(
                f"cannot load fault plan {args.faults}: {exc}") from None
    if not args.breaker and (args.retry, args.timeout_ms, args.hedge_ms,
                             args.shed_depth) == (None,) * 4:
        return plan, None
    # the traffic checks passed: a duration that is not None is > 0
    return plan, ResilienceConfig(
        deadline_s=args.timeout_ms / 1e3 if args.timeout_ms else None,
        hedge_delay_s=args.hedge_ms / 1e3 if args.hedge_ms else None,
        retry=(None if args.retry is None else
               RetryPolicy(max_attempts=args.retry, budget=args.retry_budget)),
        shed_depth=args.shed_depth,
        breaker=BreakerConfig() if args.breaker else None,
        degrade_after=args.degrade_after)


def _run_traffic(args, metrics, tracer):
    """Build a ``ServeSim`` from parsed traffic flags and run it.
    Returns ``(sim, report)``; raises ``ValueError`` on bad specs."""
    from .serve import ServeSim
    faults, resilience = _resilience_of(args)
    sim = ServeSim(args.apps, machines=args.machines,
                   max_batch=args.batch,
                   max_wait_s=args.max_wait_ms / 1e3,
                   policy=args.policy, backend=args.backend,
                   payloads=args.payloads, metrics=metrics,
                   tracer=tracer, faults=faults, resilience=resilience)
    if args.rate is not None:
        report = sim.run_open(args.rate, args.requests, seed=args.seed)
    else:
        report = sim.run_closed(args.clients, args.requests,
                                think_s=args.think_ms / 1e3,
                                seed=args.seed)
    return sim, report


def serve_main(argv=None) -> int:
    """``repro.tools serve-sim <app> [...]``: run the serving simulator."""
    ap = _Parser(
        prog="repro.tools serve-sim",
        description="Simulate seeded open- or closed-loop traffic to "
                    "cached compiled programs, lane-packed and placed on "
                    "a machine fleet; reports throughput and latency.")
    _add_traffic_args(ap)
    ap.add_argument("--latency-out", metavar="FILE.json",
                    help="write the report, latency histogram included, "
                         "as JSON")
    _add(ap, *_EXPORTS, "--metrics", "--json")
    ap.add_argument("--slo", metavar="SPEC.json",
                    help="attach an SLO spec's evaluation to the report "
                         "(slo-report gates on it)")
    ap.add_argument("--chaos", action="store_true",
                    help="with --faults and --slo: exit 1 unless traffic "
                         "after the last scripted fault meets the SLO")
    args = ap.parse_args(argv)
    rc = (_check_traffic_args(args, "serve-sim")
          or _check_outputs(args, "--latency-out", *_EXPORTS))
    if rc != EXIT_OK:
        return rc
    if args.chaos and not (args.faults and args.slo):
        print("--chaos requires both --faults and --slo", file=sys.stderr)
        return EXIT_USAGE
    if args.json and args.metrics:
        print("--metrics prints a table, --json one JSON document; write "
              "the registry with --metrics-out FILE", file=sys.stderr)
        return EXIT_USAGE

    from .obs import MetricsRegistry, Tracer, evaluate_slo
    spec = None
    if args.slo:
        spec = _load_slo(args.slo)
        if spec is None:
            return EXIT_USAGE
    metrics = MetricsRegistry()
    # --latency-out also traces: request timelines feed the exact
    # latency `decomposition` section of the latency JSON
    tracer = (Tracer() if (args.trace_out or args.flame_out
                           or args.latency_out) else None)
    try:
        sim, report = _run_traffic(args, metrics, tracer)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    slo_report = None
    rejected = sim.last_server.rejected
    if spec is not None:
        slo_report = evaluate_slo(spec, sim.last_server.responses,
                                  rejected=rejected)
        report.slo = slo_report.to_json()
    recovered = True
    if args.chaos:
        # recovery gate: score only traffic that outlived the scripted
        # chaos — the run may burn budget *during* the outage, but the
        # post-fault tail must meet the SLO or the exit status says so
        cut = sim.faults.last_disruption_s() if sim.faults else 0.0
        post = [r for r in sim.last_server.responses if r.finish_s >= cut]
        post_rej = [j for j in rejected if j.t_s >= cut]
        recovery = (evaluate_slo(spec, post, rejected=post_rej)
                    if post else None)
        recovered = recovery is not None and recovery.ok
        report.chaos = {
            "recovery_from_s": cut,
            "post_responses": len(post),
            "post_rejected": len(post_rej),
            "recovered": recovered,
            "slo": None if recovery is None else recovery.to_json(),
        }
    if args.json:
        print(_json.dumps(report.to_json(), indent=2, default=str))
    else:
        print(report.render())
        # host cost of the run, not part of the report: what the event
        # loop popped, per submitted request, and how many functional
        # executions the capture store performed and answered
        events = sum(sim.last_server.events_by_kind.values())
        shown = f"{events / 1e3:.1f}k" if events >= 1000 else str(events)
        print(f"  events {shown} "
              f"({events / (report.requests + report.rejected):.2f}/request)")
        print(f"  executions {sim.cache.captures_run} run / "
              f"{sim.cache.captures_reused} reused")
        for fb in sim.last_server.fallbacks:
            print(f"  fallback {fb.app} x{fb.requests}: {fb.reason}")
        if slo_report is not None:
            print(slo_report.render())
    if args.metrics:
        print(metrics.render())
    if args.latency_out:
        with open(args.latency_out, "w") as fh:
            _json.dump(report.to_json(), fh, indent=1, default=str)
            fh.write("\n")
        _note(args, f"wrote latency report to {args.latency_out}")
    _write_exports(args, tracer, metrics)
    if args.chaos:
        if not recovered:
            print("CHAOS: SLO not recovered after the last scripted fault",
                  file=sys.stderr)
            return EXIT_FAIL
        if not args.json:
            print("CHAOS: post-fault traffic meets the SLO")
    return EXIT_OK


def slo_main(argv=None) -> int:
    """``repro.tools slo-report <app> --spec SPEC``: evaluate SLOs over a
    simulated serving run; exit 1 when any objective's error budget is
    exhausted (the CI gate)."""
    ap = _Parser(
        prog="repro.tools slo-report",
        description="Run the serving simulator and score the responses "
                    "against an SLO spec: objectives, error budgets and "
                    "burn rates over the simulated timeline.")
    _add_traffic_args(ap)
    ap.add_argument("--spec", required=True, metavar="SPEC.json",
                    help="SLO spec file (see examples/slo_serving.json)")
    ap.add_argument("--out", metavar="FILE.json",
                    help="write the evaluation as JSON")
    _add(ap, "--json")
    args = ap.parse_args(argv)
    rc = (_check_traffic_args(args, "slo-report")
          or _check_outputs(args, "--out"))
    if rc != EXIT_OK:
        return rc

    from .obs import evaluate_slo
    spec = _load_slo(args.spec)
    if spec is None:
        return EXIT_USAGE
    try:
        sim, _report = _run_traffic(args, None, None)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    result = evaluate_slo(spec, sim.last_server.responses,
                          rejected=sim.last_server.rejected)
    if args.json:
        print(_json.dumps(result.to_json(), indent=2, default=str))
    else:
        print(result.render())
    if args.out:
        with open(args.out, "w") as fh:
            _json.dump(result.to_json(), fh, indent=1, default=str)
            fh.write("\n")
        _note(args, f"wrote SLO report to {args.out}")
    if not result.ok:
        print("SLO VIOLATED: error budget exhausted", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


def _analyze_critical(app: str, backend, as_json: bool) -> int:
    """Simulate ``app`` on its bundled dataset with tracing and print the
    critical path of the priced run."""
    from .bench import get_bundle
    from .obs import Tracer
    from .obs.critical import critical_path
    bundle = get_bundle(app)
    tracer = Tracer()
    bundle.simulate("opt", tracer=tracer, backend=backend)
    run = tracer.last_run
    run.name[0] = app
    cp = critical_path(run)
    if as_json:
        print(_json.dumps(cp.to_json(), indent=2, sort_keys=True))
    else:
        print(cp.render())
        dom = cp.dominant(kind="loop")
        if dom is not None:
            print(f"dominant loop: {dom.name} "
                  f"(self {dom.self_s * 1e3:.3f} ms of "
                  f"{cp.total_s * 1e3:.3f} ms)")
        print(f"self-time attribution covers "
              f"{cp.attributed_s * 1e3:.3f} ms of "
              f"{cp.total_s * 1e3:.3f} ms end-to-end")
    return EXIT_OK


def _analyze_diff(app: str, ref_a: str, ref_b: str, history,
                  window: int, as_json: bool) -> int:
    """Differential diff of two history records of ``app``."""
    from .obs.analyze import root_cause, root_cause_json
    from .obs.history import load_history
    records = load_history(app, history)
    if len(records) < 2:
        print(f"analyze --diff: {app} has {len(records)} history "
              f"record(s); need two to diff — nothing to report")
        return EXIT_OK

    def resolve(ref: str) -> int:
        i = {"latest": -1, "prev": -2}.get(ref)
        i = int(ref) if i is None else i   # may raise ValueError
        return i if i >= 0 else len(records) + i

    try:
        ia, ib = resolve(ref_a), resolve(ref_b)
        rec_a, rec_b = records[ia], records[ib]
    except (ValueError, IndexError):
        print(f"analyze --diff: refs must be 'latest', 'prev' or an "
              f"index into {len(records)} records; got "
              f"{ref_a!r} {ref_b!r}", file=sys.stderr)
        return EXIT_USAGE
    rc = root_cause(app, rec_a, rec_b, window,
                    baseline_desc=f"explicit diff: record {ia} vs {ib}")
    if as_json:
        print(root_cause_json(rc))
    else:
        print(rc.render())
    return EXIT_OK


def _analyze_requests(app: str, args) -> int:
    """Seeded serving run; print the exact per-request latency
    decomposition and fleet bottleneck attribution. The run is
    ``serve-sim``'s traffic, checked and run as there, at its defaults
    but for the flags ``analyze`` has."""
    from .obs import Tracer
    from .obs.analyze import COMPONENTS, request_decomposition
    from .obs.critical import fleet_attribution
    traffic = _Parser()
    _add_traffic_args(traffic)
    # argparse fills in a default only where the namespace has no value
    targs = traffic.parse_args([app], argparse.Namespace(**{
        **vars(args), "requests": args.count}))
    rc = _check_traffic_args(targs, "analyze --requests")
    if rc != EXIT_OK:
        return rc
    tracer = Tracer()
    try:
        sim, report = _run_traffic(targs, None, tracer)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    rows = request_decomposition(sim.last_server)
    # the decomposition identity is exact by construction; verify it
    # anyway so a future refactor can't silently break the contract
    inexact = [r["rid"] for r in rows
               if sum(r[c] for c in COMPONENTS) != r["latency_s"]]
    fleet = fleet_attribution(tracer.last_run)
    if args.json:
        doc = {"app": app, "mode": report.mode, "seed": args.seed,
               "exact": not inexact,
               "requests": rows,
               "decomposition": report.decomposition,
               "fleet": fleet.to_json()}
        print(_json.dumps(doc, indent=2, sort_keys=True))
    else:
        from .report.tables import render_table
        trows = [[r["rid"], r["app"], r["machine"]]
                 + [f"{r[c] * 1e3:.3f}" for c in COMPONENTS]
                 + [f"{r['latency_s'] * 1e3:.3f}"] for r in rows]
        print(render_table(
            ["rid", "app", "machine", "admission", "batch win",
             "dispatch", "stagger", "execution", "latency ms"],
            trows, title=f"per-request latency decomposition ({app}, "
                         f"seed {args.seed}, all columns ms)"))
        print(fleet.render())
        if inexact:
            print(f"DECOMPOSITION INEXACT for rids {inexact}",
                  file=sys.stderr)
        else:
            print(f"decomposition exact: components sum to latency "
                  f"(tol 0.0) for all {len(rows)} requests")
    return EXIT_FAIL if inexact else EXIT_OK


#: the flags each ``analyze`` mode reads (``--critical-path`` is the
#: default); any other flag given is bad usage
_ANALYZE_READS = {
    "--critical-path": ("--backend", "--json"),
    "--diff": ("--history", "--window", "--json"),
    "--requests": ("--backend", "--count", "--clients", "--json", "--rate",
                   "--batch", "--max-wait-ms", "--seed", "--policy",
                   "--machines"),   # the last six: ``_add_fleet_args``
}


def analyze_main(argv=None) -> int:
    """``repro.tools analyze``: trace analytics over the simulated
    runtime — critical path, history diff, request decomposition."""
    ap = _Parser(
        prog="repro.tools analyze",
        description="Trace analytics, one mode per run: the critical path "
                    "of a priced run (--critical-path, the default), two "
                    "history records diffed per loop (--diff A B), or the "
                    "exact latency split of a serving run (--requests).")
    _add(ap, "app", "--json", "--backend")
    ap.add_argument("--critical-path", action="store_true",
                    help="extract the critical path of one simulated run "
                         "(default mode)")
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                    help="diff two history records; refs are 'latest', "
                         "'prev', or an integer index (negative counts "
                         "from the end)")
    ap.add_argument("--requests", action="store_true",
                    help="run a seeded serving simulation and print the "
                         "exact per-request latency decomposition plus "
                         "fleet bottleneck attribution")
    ap.add_argument("--history", default=None,
                    help="history directory for --diff "
                         "(default: benchmarks/history)")
    ap.add_argument("--window", type=int, default=8,
                    help="window label recorded on --diff reports "
                         "(default %(default)s)")
    ap.add_argument("--count", type=int, default=16,
                    help="--requests: total requests (default %(default)s)")
    ap.add_argument("--clients", type=int, default=4,
                    help="--requests: closed-loop clients "
                         "(default %(default)s)")
    _add_fleet_args(ap)
    args, given = _parse(ap, argv)
    if not args.app:
        print("analyze requires an application name", file=sys.stderr)
        return EXIT_USAGE
    modes = [flag for flag in _ANALYZE_READS if flag in given]
    if len(modes) > 1:
        print(f"analyze runs one mode; got {' and '.join(modes)}",
              file=sys.stderr)
        return EXIT_USAGE
    mode = modes[0] if modes else "--critical-path"
    unread = [flag for flag in given
              if flag != mode and flag not in _ANALYZE_READS[mode]]
    if unread:
        print(f"analyze {mode} does not read {', '.join(unread)}",
              file=sys.stderr)
        return EXIT_USAGE

    if args.diff is not None:
        return _analyze_diff(args.app, args.diff[0], args.diff[1],
                             args.history, args.window, args.json)

    if _check_bundled([args.app], "analyze") != EXIT_OK:
        return EXIT_USAGE
    if args.requests:
        return _analyze_requests(args.app, args)
    return _analyze_critical(args.app, args.backend, args.json)


_SUBCOMMANDS = {"explain": explain_main, "serve-sim": serve_main,
                "slo-report": slo_main, "analyze": analyze_main}


def inspect_main(argv) -> int:
    """``repro.tools <app>``: one compile of ``app``, every view of it."""
    ap = _Parser(prog="repro.tools", description=__doc__)
    _add(ap, "app")
    ap.add_argument("--list", action="store_true", help="list applications")
    ap.add_argument("--stage", choices=("staged", "compiled"),
                    default="compiled",
                    help="staged: the program as written, not compiled")
    _add(ap, "--target")
    ap.add_argument("--emit", choices=("ir", "cpp", "cuda", "scala"),
                    help="print the program as IR or generated code "
                         "(default: ir when no other view is asked for)")
    for flag, help in (
            ("--report", "print the partitioning/stencil report"),
            ("--trace", "print the per-pass compilation trace"),
            ("--verify-each", "run the IR verifier after every pass"),
            ("--no-transforms", "disable the Fig. 3 nested pattern rules"),
            ("--profile", "price the compile on the app's bundled dataset "
                          "and print the per-loop time breakdown")):
        ap.add_argument(flag, action="store_true", help=help)
    _add(ap, "--metrics", *_EXPORTS, "--backend")
    args, given = _parse(ap, argv)

    observed = [flag for flag in ("--profile", "--metrics", *_EXPORTS)
                if flag in given]
    extra = [a for a in (args.app, *given) if a not in (None, "--list")]
    if args.list and extra:
        print("--list prints the application list and reads nothing else; "
              f"got {', '.join(extra)}", file=sys.stderr)
        return EXIT_USAGE
    if not args.list and not args.app and given:
        print("an application name is required with these flags; "
              "see --list", file=sys.stderr)
        return EXIT_USAGE
    if not args.app:
        from .apps import PROGRAMS
        print("applications:", ", ".join(sorted(PROGRAMS)))
        return EXIT_OK
    if not _known_app(args.app, "repro.tools"):
        return EXIT_USAGE
    # a flag that no requested view reads is bad usage, never dropped
    unread = ([flag for flag in given if flag not in ("--stage", "--emit")]
              if args.stage == "staged" else
              ["--backend"] if args.backend and not observed else [])
    if unread:
        print(f"{', '.join(unread)}: " + (
            "--stage staged prints the program as written, uncompiled"
            if args.stage == "staged" else
            "picks the engine of an observed run (--profile, --metrics, "
            "--*-out); none was asked for"), file=sys.stderr)
        return EXIT_USAGE
    rc = (_check_outputs(args, *_EXPORTS)
          or (observed and _check_bundled([args.app], "/".join(observed))))
    if rc:
        return rc
    if observed:
        from .backend import resolve_backend_ex
        try:
            backend, backend_source = resolve_backend_ex(args.backend)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE

    from .apps import PROGRAMS
    prog = PROGRAMS[args.app]()
    if args.stage == "staged":
        print(_emit(prog, args.emit or "ir"))
        return EXIT_OK

    from .pipeline import compile_program
    compiled = compile_program(prog, args.target or "distributed",
                               apply_nested_transforms=not args.no_transforms,
                               verify=args.verify_each)
    if args.trace:
        from .passes import trace_table
        print(trace_table(compiled.trace))
        total = sum(t.wall_ms for t in compiled.trace)
        changed = sum(1 for t in compiled.trace if t.changed)
        print(f"{len(compiled.trace)} passes, {changed} changed the "
              f"program, {total:.2f} ms total")
    if args.report:
        print("applied rules:", compiled.report.applied_rules or "fusion only")
        for w in compiled.warnings:
            print("warning:", w)
        for ls in compiled.stencils.values():
            reads = {str(s): v.value for s, v in ls.reads.items()}
            print(f"loop {ls.loop_sym}: {reads}")
        for sym, layout in compiled.report.layouts.items():
            print(f"  {sym}: {layout.value}")
    if observed:
        _run_observed(args, compiled, backend, backend_source)
    if args.emit or not (args.trace or args.report or observed):
        print(_emit(compiled.program, args.emit or "ir"))
    return EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    run = _SUBCOMMANDS.get(argv[0]) if argv else None
    try:
        try:
            rc = run(argv[1:]) if run else inspect_main(argv)
        except SystemExit as e:    # argparse: 0 after --help, 2 on bad usage
            rc = int(e.code or 0)
        sys.stdout.flush()         # a closed reader surfaces here, not at exit
        return rc
    except BrokenPipeError:
        # the reader closed stdout: drop the rest quietly, and fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
