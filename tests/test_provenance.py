"""Decision provenance (``repro explain``) and the benchmark regression
observatory (``repro.obs.history`` + ``repro.obs.regress``).

Covers the acceptance surface of DESIGN.md §8: every bundled app
compiles to a non-empty, reason-bearing ledger; the interesting reason
paths (rejected fusion with the blocking dependency named, Unknown
stencils with the failed affine test) actually occur; digests are
stable across compiles and drift when an optimization is ablated; the
regression checker flags real regressions and ignores noise; and the
whole layer costs nothing when no ledger scope is active.
"""

import dataclasses
import io
import json
from contextlib import redirect_stdout

import pytest

from repro import tools
from repro.bench import get_bundle
from repro.obs.diagnostics import Severity
from repro.obs.history import RunRecord, append_record, load_history
from repro.obs.provenance import (DecisionKind, DecisionLedger, REJECTED,
                                  active, diff_ledgers, emit, ledger_scope,
                                  strip_ids)
from repro.obs.regress import (DEFAULT_WALL_PCT, check_records, main as
                               regress_main, trend_table)
from repro.pipeline import compile_program
from repro.serve.cache import VARIANTS
from repro.apps import PROGRAMS
from repro.tools import _explain_compile

EXPLAIN_APPS = ["kmeans", "logreg", "gda", "q1", "gene", "pagerank",
                "triangle", "gibbs"]


def emit_to(led, *args, **evidence):
    with ledger_scope(led):
        emit(*args, **evidence)


def explain(app, variant=None):
    return _explain_compile(app, "distributed", variant=variant)


# ---------------------------------------------------------------------------
# the ledger itself
# ---------------------------------------------------------------------------

class TestLedger:
    @pytest.mark.parametrize("app", EXPLAIN_APPS)
    def test_every_app_has_a_reasoned_ledger(self, app):
        led = explain(app)
        assert len(led) > 0
        for d in led.decisions:
            assert d.reason, f"{app}: {d.kind.value} at {d.site} lacks a reason"
            assert d.pass_name, f"{app}: decision not attributed to a pass"

    def test_kmeans_unknown_stencil_names_failed_test(self):
        led = explain("kmeans")
        unknown = [d for d in led.decisions if d.kind is DecisionKind.STENCIL
                   and d.outcome == "Unknown"]
        assert unknown
        reasons = " ".join(d.reason for d in unknown)
        # the reason names *which* affine test failed, not just "Unknown"
        assert "data-dependent" in reasons or "cannot bound" in reasons

    def test_q1_records_applied_and_rejected_soa(self):
        led = explain("q1")
        outcomes = {d.outcome for d in led.decisions
                    if d.kind is DecisionKind.SOA}
        assert {"applied", REJECTED} <= outcomes

    @pytest.mark.parametrize("app", ["logreg", "pagerank"])
    def test_rejected_fusion_names_blocker(self, app):
        led = explain(app)
        rej = [d for d in led.decisions
               if d.outcome == REJECTED and d.kind in
               (DecisionKind.FUSION_VERTICAL, DecisionKind.FUSION_HORIZONTAL)]
        assert rej, f"{app}: expected at least one rejected fusion"
        # each rejection names what blocked it (a dependency or an access)
        for d in rej:
            assert ("depends on" in d.reason or "indexed by" in d.reason
                    or "reads" in d.reason or "filter" in d.reason)

    def test_dedup_counts_instead_of_flooding(self):
        led = DecisionLedger()
        led.begin_pass("p", "phase")
        for _ in range(5):
            led.record(DecisionKind.STENCIL, "loop1", "All", "same reason")
        assert len(led) == 1
        assert led.decisions[0].count == 5

    def test_replay_records_what_the_pass_emitted_folds_included(self):
        led = DecisionLedger()
        emitted = led.begin_pass("p", "phase")
        for _ in range(2):
            emit_to(led, DecisionKind.FUSION_VERTICAL, "x1", REJECTED, "r",
                    producer="y2")
        emit_to(led, DecisionKind.DCE, "z3", "applied", "dropped")
        assert len(emitted) == 3 and len(led.decisions) == 2
        before = led.to_json()
        led.begin_pass("p", "phase")
        led.replay(emitted)
        after = led.to_json()
        # the rejection folds (count 2 -> 4, first snapshot kept); the
        # applied decision is a new record stamped with the new snapshot
        assert [d["count"] for d in after["decisions"]] == [4, 1, 1]
        assert [d["snapshot"] for d in after["decisions"]] == [0, 0, 1]
        assert after["decisions"][2] == {**before["decisions"][1],
                                         "snapshot": 1}

    def test_for_loop_filter_ignores_ids(self):
        led = explain("kmeans")
        sites = {d.site for d in led.decisions}
        site = next(s for s in sites if s[0].isalpha())
        prefix = site.rstrip("0123456789")
        assert led.for_loop(prefix)  # 'mapidx' matches mapidx69
        assert led.for_loop(site)

    def test_render_and_json_round_trip(self):
        led = explain("kmeans")
        text = led.render(title="t")
        assert "digest:" in text and "[" in text
        doc = led.to_json()
        assert doc["digest"] == led.digest()
        assert len(doc["decisions"]) == len(led.decisions)
        json.dumps(doc)  # must be serializable as-is


# ---------------------------------------------------------------------------
# digests and diffs
# ---------------------------------------------------------------------------

#: id-stripped, hence process-independent: (opt, plain, gpu) per app
PINNED_DIGESTS = {
    "kmeans": ("d96322f1bd2a8388", "c81b3b82fa67d6b9", "69849f60f9d5d4fa"),
    "logreg": ("fb2bdeb2bab6e0c5", "b1eb33c20e2b40f5", "ac3fa5aa3d2f27b6"),
    "gda": ("f88e81ef8a8d78df", "2dd5469e0ec1bf11", "306c68a63a5cac3d"),
    "q1": ("e11c20166ffc4a01", "8de3f72aad4baa1c", "e11c20166ffc4a01"),
    "gene": ("5c83b6848b5b88c8", "b0f15b688247fcc0", "5c83b6848b5b88c8"),
    "pagerank": ("c649e31d2db28dff", "c84b4a6f10d48111", "c649e31d2db28dff"),
    "triangle": ("dc99ebce70f104cb", "9dbc54494ce60c21", "dc99ebce70f104cb"),
    "gibbs": ("34b2397b7d3369e1", "035ec2ad8cd9f3ff", "34b2397b7d3369e1"),
}


class TestDigest:
    @pytest.mark.parametrize("app", EXPLAIN_APPS)
    def test_compile_digests_are_pinned(self, app):
        # the ledger is the record of what the compiler decided: a change
        # to how passes are *driven* (sharing, replay) must not move it
        bundle = get_bundle(app)
        got = tuple(
            compile_program(bundle._factory(), target, **kw)
            .provenance.digest() for target, kw in VARIANTS.values())
        assert got == PINNED_DIGESTS[app]

    def test_digest_stable_across_compiles(self):
        assert explain("kmeans").digest() == explain("kmeans").digest()

    def test_digest_drifts_when_fusion_ablated(self):
        assert explain("kmeans").digest() != \
            explain("kmeans", variant="no-fusion").digest()

    def test_strip_ids_normalizes_sym_numbers(self):
        assert strip_ids("mapidx69 uses bktred131") == \
            strip_ids("mapidx42 uses bktred7")

    def test_diff_identical_ledgers(self):
        a, b = explain("gene"), explain("gene")
        assert "identical decision sets" in diff_ledgers(a, b)

    def test_diff_shows_ablated_fusions(self):
        a = explain("kmeans")
        b = explain("kmeans", variant="no-fusion")
        out = diff_ledgers(a, b, "default", "no-fusion")
        assert "only in default" in out
        assert "fusion-vertical applied" in out


# ---------------------------------------------------------------------------
# zero overhead when disabled
# ---------------------------------------------------------------------------

class TestZeroOverhead:
    def test_execstats_identical_with_and_without_ledger(self):
        from repro.backend import run_program_numpy
        b = get_bundle("kmeans")
        compiled = b.compiled("opt")
        prepared = compiled.prepare_inputs(b.inputs)
        _, bare, _ = run_program_numpy(compiled.program, prepared)
        with ledger_scope(DecisionLedger()):
            _, scoped, _ = run_program_numpy(compiled.program, prepared)
        assert dataclasses.asdict(bare) == dataclasses.asdict(scoped)

    def test_emit_is_noop_without_scope(self):
        assert active() is None
        emit(DecisionKind.STENCIL, "x", "All", "reason")  # must not raise

    def test_scope_none_disables_inside_outer_scope(self):
        outer = DecisionLedger()
        with ledger_scope(outer):
            with ledger_scope(None):
                emit(DecisionKind.STENCIL, "x", "All", "reason")
            emit(DecisionKind.STENCIL, "y", "All", "reason")
        assert [d.site for d in outer.decisions] == ["y"]


# ---------------------------------------------------------------------------
# severity enum (was a bare string literal)
# ---------------------------------------------------------------------------

class TestSeverity:
    def test_of_accepts_known_names(self):
        assert Severity.of("warning") is Severity.WARNING
        assert Severity.of(Severity.INFO) is Severity.INFO

    def test_of_rejects_typo(self):
        with pytest.raises(ValueError):
            Severity.of("warnign")

    def test_partition_warnings_are_enum_typed(self):
        compiled = get_bundle("kmeans").compiled("opt")
        for d in compiled.diagnostics:
            assert isinstance(d.severity, Severity)


# ---------------------------------------------------------------------------
# history store
# ---------------------------------------------------------------------------

def rec(app="kmeans", wall=0.1, cycles=1000, digest="aaaa", fallbacks=0):
    return RunRecord(app=app, backend="numpy", git_sha="abc1234",
                     wall_s=wall, sim_s=0.01, cycles=cycles,
                     fallbacks=fallbacks, digest=digest)


class TestHistory:
    def test_append_and_load_round_trip(self, tmp_path):
        append_record(rec(wall=0.1), root=tmp_path)
        append_record(rec(wall=0.2), root=tmp_path)
        out = load_history("kmeans", root=tmp_path)
        assert [r.wall_s for r in out] == [0.1, 0.2]
        assert all(r.timestamp > 0 for r in out)

    def test_torn_line_is_skipped(self, tmp_path):
        p = append_record(rec(), root=tmp_path)
        with p.open("a") as fh:
            fh.write('{"app": "kmeans", "tru')  # killed mid-write
        assert len(load_history("kmeans", root=tmp_path)) == 1

    def test_unknown_keys_survive_in_extra(self):
        doc = json.loads(rec().to_json_line())
        doc["future_field"] = 7
        r = RunRecord.from_dict(doc)
        assert r.extra["future_field"] == 7

    def _write_lines(self, tmp_path, walls_and_ts):
        # craft the JSONL by hand: append_record stamps timestamps, and
        # these tests need explicit (possibly zero) ones
        p = tmp_path / "kmeans.jsonl"
        with p.open("w") as fh:
            for wall, ts in walls_and_ts:
                r = rec(wall=wall)
                r.timestamp = ts
                fh.write(r.to_json_line() + "\n")
        return p

    def test_out_of_order_lines_sorted_by_timestamp(self, tmp_path):
        # records merged from CI artifact caches can interleave: the
        # newest line is NOT last in the file, but must be after loading
        self._write_lines(tmp_path,
                          [(0.3, 300.0), (0.1, 100.0), (0.2, 200.0)])
        out = load_history("kmeans", root=tmp_path)
        assert [r.wall_s for r in out] == [0.1, 0.2, 0.3]

    def test_zero_timestamp_records_keep_file_order(self, tmp_path):
        # legacy lines with the 0.0 default glue to their predecessor
        # and stay in file order relative to each other
        self._write_lines(tmp_path,
                          [(0.1, 0.0), (0.2, 0.0), (0.3, 50.0),
                           (0.4, 0.0), (0.35, 25.0)])
        out = load_history("kmeans", root=tmp_path)
        assert [r.wall_s for r in out] == [0.1, 0.2, 0.35, 0.3, 0.4]


# ---------------------------------------------------------------------------
# regression checker
# ---------------------------------------------------------------------------

class TestRegress:
    def test_empty_history_bootstraps(self):
        assert check_records("kmeans", []).status == "bootstrap"
        assert check_records("kmeans", [rec()]).status == "bootstrap"

    def test_identical_runs_pass(self):
        v = check_records("kmeans", [rec(), rec(), rec(), rec()])
        assert v.status == "ok" and v.ok

    def test_short_history_reports_warming(self):
        # with fewer than MIN_WALL_WINDOW prior records the noisy wall
        # gate hasn't armed yet: status says so, but nothing fails
        v = check_records("kmeans", [rec(), rec(), rec()])
        assert v.status == "warming" and v.ok and not v.problems

    def test_warming_suppresses_wall_gate_only(self):
        # a single noisy bootstrap record must not become the baseline:
        # +100% wall over one prior record is ignored while warming...
        v = check_records("kmeans", [rec(wall=0.1), rec(wall=0.2)])
        assert v.status == "warming" and v.ok
        # ...but the deterministic gates still fire during warmup
        v = check_records("kmeans", [rec(cycles=1000), rec(cycles=1100)])
        assert v.status == "regression"
        assert any("cycle regression" in p for p in v.problems)

    def test_wall_gate_arms_once_window_filled(self):
        hist = [rec(wall=0.1)] * 3 + [rec(wall=0.2)]
        v = check_records("kmeans", hist)
        assert v.status == "regression"
        assert any("wall-clock regression" in p for p in v.problems)

    def test_wall_regression_detected(self):
        hist = [rec(wall=0.1)] * 5 + [rec(wall=0.12)]  # +20% > 10%
        v = check_records("kmeans", hist)
        assert v.status == "regression"
        assert any("wall-clock regression" in p for p in v.problems)

    def test_noise_below_threshold_ignored(self):
        hist = [rec(wall=0.1)] * 5 + [rec(wall=0.105)]  # +5% < 10%
        assert check_records("kmeans", hist).ok

    def test_digest_drift_flagged(self):
        hist = [rec(digest="aaaa"), rec(digest="bbbb")]
        v = check_records("kmeans", hist)
        assert not v.ok
        assert any("digest drift" in p for p in v.problems)

    def test_cycle_regression_detected(self):
        hist = [rec(cycles=1000), rec(cycles=1000), rec(cycles=1010)]  # +1%
        v = check_records("kmeans", hist)
        assert any("cycle regression" in p for p in v.problems)

    def test_fallback_increase_flagged(self):
        hist = [rec(fallbacks=0), rec(fallbacks=2)]
        v = check_records("kmeans", hist)
        assert any("fallbacks increased" in p for p in v.problems)

    def test_trend_table_renders(self):
        t = trend_table([check_records("kmeans", [rec(), rec()])])
        assert "kmeans" in t and "status" in t

    def test_cli_exit_codes(self, tmp_path):
        # empty store: bootstrap, ok
        assert regress_main(["--history", str(tmp_path)]) == 0
        for r in [rec(wall=0.1)] * 5 + [rec(wall=0.2)]:
            append_record(r, root=tmp_path)
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert regress_main(["--history", str(tmp_path)]) == 1
        assert "REGRESSION kmeans" in buf.getvalue()
        assert regress_main(["--history", str(tmp_path),
                             "--window", "0"]) == 2
        # a generous threshold lets the same history pass
        with redirect_stdout(io.StringIO()):
            assert regress_main(["--history", str(tmp_path),
                                 "--wall-pct", "200"]) == 0

    def test_default_wall_threshold_separates_20pct_from_noise(self):
        assert DEFAULT_WALL_PCT < 20.0
        assert DEFAULT_WALL_PCT >= 5.0


# ---------------------------------------------------------------------------
# the explain CLI
# ---------------------------------------------------------------------------

class TestExplainCLI:
    def run(self, *argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = tools.main(list(argv))
        return code, buf.getvalue()

    def test_explain_app_ok(self):
        code, out = self.run("explain", "kmeans")
        assert code == 0
        assert "digest:" in out and "fusion-vertical applied" in out

    def test_explain_json(self):
        code, out = self.run("explain", "kmeans", "--json")
        assert code == 0
        assert json.loads(out)["decisions"]

    def test_explain_json_loop_filter(self, monkeypatch):
        # one compile for both outputs, so the symbol ids agree
        led = tools._explain_compile("kmeans", "distributed")
        monkeypatch.setattr(tools, "_explain_compile", lambda *a, **k: led)
        code, out = self.run("explain", "kmeans", "--loop", "bktred",
                             "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"digest": led.digest(), "decisions": [
            d.to_dict() for d in led.for_loop("bktred")]}
        full = json.loads(self.run("explain", "kmeans", "--json")[1])
        full = full["decisions"]
        assert 0 < len(doc["decisions"]) < len(full)
        assert all(d in full for d in doc["decisions"])

    def test_explain_json_unknown_loop_is_empty(self):
        code, out = self.run("explain", "kmeans", "--loop", "nope", "--json")
        assert code == 0
        assert json.loads(out)["decisions"] == []

    def test_explain_diff_rejects_json_and_loop(self):
        for extra in (["--json"], ["--loop", "bktred"]):
            assert self.run("explain", "kmeans", "--explain-diff",
                            "no-fusion", *extra)[0] == 2

    def test_explain_loop_filter(self):
        code, out = self.run("explain", "kmeans", "--loop", "bktred")
        assert code == 0
        assert "bktred" in out

    def test_explain_diff(self):
        code, out = self.run("explain", "kmeans", "--explain-diff",
                             "no-fusion")
        assert code == 0
        assert "only in default" in out

    def test_explain_usage_errors(self):
        assert self.run("explain")[0] == 2
        assert self.run("explain", "nosuchapp")[0] == 2

    def test_flags_without_app_is_usage_error(self):
        assert self.run("--report")[0] == 2
        assert self.run("--trace")[0] == 2

    def test_list_still_exits_ok(self):
        code, out = self.run("--list")
        assert code == 0 and "kmeans" in out

    def test_every_explain_app_is_a_tools_app(self):
        assert set(EXPLAIN_APPS) <= set(PROGRAMS)
