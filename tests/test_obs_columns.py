"""The exporters compute from columns, and give what the per-row code
gave, byte for byte (DESIGN.md §10).

The oracle is the per-row code itself, kept in ``tests/obs_reference.py``:
the serving-span derivation, the Chrome-trace flattening, the flame-graph
fold, the latency decomposition summary, the report's latency histogram
and the Prometheus quantiles. Both sides run on hypothesis span tables
(ties, ``;`` in names, zero, −0.0 and huge durations) and on seeds 0–9 of
the small chaos and open-traced runs.
"""

import json
import math
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (MetricsRegistry, SpanTable, Tracer,
                       chrome_trace_events, prometheus_text, render_collapsed)
from repro.obs.analyze import decomposition_summary, request_decomposition
from repro.obs.export import exact_round
from repro.obs.profile import _quantiles, _sample
from repro.serve import ServeSim
from repro.serve.simulator import ServeReport

from . import obs_reference as ref
from .test_serve_pins import APPS, chaos_run

# ---------------------------------------------------------------------------
# exact_round
# ---------------------------------------------------------------------------


def same_float(a: float, b: float) -> bool:
    return (math.isnan(a) and math.isnan(b)) or \
        struct.pack("<d", a) == struct.pack("<d", b)


def check_exact_round(values, ndigits=3):
    import numpy as np
    got = exact_round(np.array(values, dtype=float), ndigits).tolist()
    for v, g in zip(values, got):
        assert same_float(g, round(v, ndigits)), (v, g, round(v, ndigits))


def around(x: float, ulps: int = 2):
    """``x`` and its neighbours up to ``ulps`` ulp away on either side."""
    out = [x]
    lo = hi = x
    for _ in range(ulps):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


class TestExactRound:
    def test_ties_and_their_neighbours(self):
        # k + .5 thousandths, exactly a tie after scaling when dyadic
        # (0.0625 → 62.5), and the floats one ulp around each
        values = []
        for k in list(range(0, 40)) + [12345, 2 ** 20, 2 ** 40]:
            for sign in (1, -1):
                tie = sign * (k + 0.5) / 1000
                values += around(tie)
                values += around(tie * 1e-6)
        values += around(0.0625) + around(-0.0625) + around(1.0625e-3)
        check_exact_round(values)

    def test_signed_zero_subnormals_and_tiny(self):
        check_exact_round([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308,
                           1e-300, -1e-300, 4e-4, -4e-4, 5e-4, -5e-4])

    def test_large_non_finite_and_beyond_2_52(self):
        big = 2.0 ** 52 / 1000
        check_exact_round(around(big, 4) + around(-big, 4) + [
            2.0 ** 53, 1e17, 1e300, -1e300, 1.7e308, math.inf, -math.inf,
            math.nan])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(-1e12, 1e12),
        st.integers(-10 ** 9, 10 ** 9).map(lambda k: (k + 0.5) / 1000),
        st.integers(0, 10 ** 6).map(lambda k: k / 1e6)), max_size=40),
        st.integers(0, 6))
    def test_is_round(self, values, ndigits):
        check_exact_round(values, ndigits)


# ---------------------------------------------------------------------------
# span tables: Chrome trace and flame graph
# ---------------------------------------------------------------------------

starts = st.one_of(st.sampled_from([0.0, 0.001, 0.0015, 0.25]),
                   st.floats(0.0, 10.0))
durations = st.one_of(st.sampled_from([0.0, -0.0, 0.0005, 1e-9, 1e300]),
                      st.floats(0.0, 5.0), st.floats(0.0, 1e12))
names = st.text(alphabet="ab;c:", min_size=0, max_size=4)
kinds = st.sampled_from(["loop", "machine", "batch", "request", "queue",
                         "exec", "attempt", "fault"])
attrs = st.fixed_dictionaries({}, optional={
    "rid": st.integers(0, 5), "machine": st.one_of(st.none(),
                                                     st.integers(0, 3)),
    "batch_id": st.integers(0, 3), "flow_id": st.integers(0, 2 ** 53),
    "dispatch_s": starts, "op": st.sampled_from(["map", ["x", "1"]]),
    "layouts": st.just({"a": "1"})})


@st.composite
def span_tables(draw):
    """One run's rows in pre-order: a run row, then rows each at most one
    level below the row before it, five levels deep at most."""
    table = SpanTable()
    depth = 0
    for row in range(draw(st.integers(1, 30))):
        depth = draw(st.integers(1, min(depth + 1, 5))) if row else 0
        kind = draw(kinds) if depth else "run"
        a = draw(attrs)
        table.add(depth, draw(names), kind, draw(starts), draw(durations), a,
                  *ref.track(kind, a))
    return table


def ref_rows(source):
    return list(ref.span_rows(source))


class TestSpanTrees:
    @settings(max_examples=100, deadline=None)
    @given(span_tables())
    def test_one_tree(self, run):
        assert json.dumps(chrome_trace_events(run)) == \
            json.dumps(ref.chrome_trace_events(run))
        assert render_collapsed(run) == ref.render_collapsed(ref_rows(run))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(span_tables(), max_size=3))
    def test_a_tracer_of_several_runs(self, runs):
        tracer = Tracer()
        tracer._runs.extend(runs)
        assert json.dumps(chrome_trace_events(tracer)) == \
            json.dumps(ref.chrome_trace_events(tracer))
        assert render_collapsed(tracer) == \
            ref.render_collapsed(ref_rows(tracer))


# ---------------------------------------------------------------------------
# serving runs, seeds 0-9
# ---------------------------------------------------------------------------


def open_traced_run(seed, rate=1200, requests=600):
    tracer = Tracer()
    sim = ServeSim(APPS, machines="numa", max_batch=8, max_wait_s=0.02,
                   backend="numpy", payloads=1, tracer=tracer)
    report = sim.run_open(rate, requests, seed)
    return sim.last_server, tracer, report


def check_run(server, tracer, report):
    assert json.dumps(chrome_trace_events(tracer)) == \
        json.dumps(ref.chrome_trace_events(tracer, [server]))
    assert render_collapsed(tracer) == \
        ref.render_collapsed(ref.span_rows(tracer, servers=[server]))
    assert json.dumps(decomposition_summary(server)) == \
        json.dumps(ref.decomposition_summary(server))
    assert json.dumps(request_decomposition(server)) == \
        json.dumps(ref.request_decomposition(server))
    assert report.latency_histogram() == \
        ref.latency_histogram(report.latencies_s)
    # the derivation, read after the exports filled the run's table
    assert list(tracer.last_run.rows())[1:] == list(ref.rows(server))


class TestServingRuns:
    def test_chaos_seeds_0_to_9(self):
        for seed in range(10):
            check_run(*chaos_run(seed, 300, (0.04, 0.08), (0.1, 0.15)))

    def test_open_traced_seeds_0_to_9(self):
        for seed in range(10):
            check_run(*open_traced_run(seed))


# ---------------------------------------------------------------------------
# report histogram and Prometheus quantiles
# ---------------------------------------------------------------------------

latency_lists = st.lists(st.one_of(st.floats(0.0, 10.0),
                                   st.sampled_from([0.0, 0.5, 1e-9])),
                         max_size=200)


@settings(max_examples=200, deadline=None)
@given(latency_lists)
def test_latency_histogram_is_the_per_value_one(lats):
    report = ServeReport("open", 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0,
                         0, 0, {}, {}, latencies_s=sorted(lats))
    assert report.latency_histogram() == ref.latency_histogram(sorted(lats))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.floats(allow_nan=False),
                          st.sampled_from([0.0, -0.0, 1.0])),
                min_size=1, max_size=300))
def test_quantiles_are_the_full_sort_ones(vals):
    want = ref.quantiles(vals)
    assert [struct.pack("<d", v) for v in _quantiles(vals)] == \
        [struct.pack("<d", want[q]) for q in ("p50", "p90", "p95", "p99")]


def test_prometheus_text_of_a_chaos_run():
    registry = MetricsRegistry()
    server, _, _ = chaos_run(3, 300, (0.04, 0.08), (0.1, 0.15))
    chaos_run(3, 300, (0.04, 0.08), (0.1, 0.15), registry, server.cache)
    assert prometheus_text(registry) == \
        ref.prometheus_text(registry, sample=_sample)


def test_prometheus_samples_keep_their_value():
    # "{:g}" kept 6 significant digits (1.23457e+06) and wrote inf/nan,
    # which the exposition format spells +Inf/-Inf/NaN
    m = MetricsRegistry()
    m.inc("serve.requests", 1234567, app="kmeans")
    m.gauge("serve.up", math.inf)
    m.gauge("serve.down", -math.inf)
    m.gauge("serve.unknown", math.nan)
    m.gauge("serve.ratio", 0.0123456789)
    for v in (0.0123456789, 0.5, 2.0):
        m.observe("serve.latency_s", v)
    lines = prometheus_text(m).splitlines()
    assert 'serve_requests{app="kmeans"} 1234567' in lines
    assert "serve_up +Inf" in lines and "serve_down -Inf" in lines
    assert "serve_unknown NaN" in lines
    assert "serve_ratio 0.0123456789" in lines
    assert 'serve_latency_s{quantile="0.50"} 0.5' in lines
    assert 'serve_latency_s{quantile="0.99"} 2' in lines
    assert "serve_latency_s_sum 2.5123456789" in lines
    assert "serve_latency_s_count 3" in lines
    for v in (3.0, -0.0, 1e-300, 2.0 ** 60, 1 / 3, -1234567.0):
        assert float(_sample(v)) == v
