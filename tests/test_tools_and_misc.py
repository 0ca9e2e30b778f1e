"""Coverage for the CLI inspector and the pretty printer."""

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import tools
from repro.core import pretty

ROOT = Path(__file__).resolve().parents[1]


def run_cli(*argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = tools.main(list(argv))
    assert rc == 0
    return buf.getvalue()


class TestCli:
    def test_list(self):
        out = run_cli("--list")
        assert "kmeans" in out and "pagerank" in out

    def test_staged_ir(self):
        out = run_cli("kmeans", "--stage", "staged")
        assert "MultiLoop" in out and "BucketReduce" not in out

    def test_compiled_ir_shows_transform(self):
        out = run_cli("kmeans")
        assert "BucketReduce" in out  # the Fig. 5 form

    def test_report(self):
        out = run_cli("q1", "--report")
        assert "groupby-reduce" in out
        assert "Partitioned" in out

    def test_emit_backends(self):
        assert "__global__" in run_cli("logreg", "--target", "gpu",
                                       "--emit", "cuda")
        assert "#include" in run_cli("gene", "--emit", "cpp")
        assert "object" in run_cli("gene", "--emit", "scala")

    def test_no_transforms_flag(self):
        out = run_cli("kmeans", "--no-transforms", "--report")
        assert "conditional-reduce" not in out

    def test_unknown_app(self):
        assert tools.main(["nope"]) == 2

    def test_staged_honors_emit(self):
        """Regression: --stage staged used to silently ignore --emit and
        always print IR."""
        assert "#include" in run_cli("q1", "--stage", "staged",
                                     "--emit", "cpp")
        assert "__global__" in run_cli("kmeans", "--stage", "staged",
                                       "--emit", "cuda")
        assert "object" in run_cli("gene", "--stage", "staged",
                                   "--emit", "scala")

    def test_staged_rejects_trace_flags(self):
        assert tools.main(["kmeans", "--stage", "staged", "--trace"]) == 2
        assert tools.main(["kmeans", "--stage", "staged",
                           "--verify-each"]) == 2

    def test_trace_flag_prints_pass_table(self):
        out = run_cli("kmeans", "--trace")
        assert "fuse-vertical" in out and "aos-to-soa" in out
        assert "passes," in out and "ms total" in out

    def test_trace_combines_with_report(self):
        out = run_cli("kmeans-grouped", "--report", "--trace")
        assert "groupby-reduce" in out and "fuse-horizontal" in out

    def test_verify_each_flag(self):
        out = run_cli("logreg", "--verify-each", "--trace", "--target",
                      "gpu")
        assert "gpu-rules" in out

    @pytest.mark.parametrize("flags", [
        ["--count", "0"], ["--batch", "0"], ["--rate", "-5"],
        ["--machines", "bogus"]])
    def test_analyze_requests_rejects_bad_traffic(self, capsys, flags):
        # the checks and the error path serve-sim has for the same values
        argv = ["analyze", "kmeans", "--requests"] + flags
        assert tools.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err


    @pytest.mark.parametrize("argv", [
        ["kmeans", "--trace-out"], ["kmeans", "--flame-out"],
        ["kmeans", "--metrics-out"],
        ["serve-sim", "kmeans", "--requests", "4", "--latency-out"],
        ["serve-sim", "kmeans", "--requests", "4", "--trace-out"],
        ["serve-sim", "kmeans", "--requests", "4", "--flame-out"],
        ["serve-sim", "kmeans", "--requests", "4", "--metrics-out"],
        ["slo-report", "kmeans", "--requests", "4", "--spec",
         "examples/slo_serving.json", "--out"]],
        ids=lambda argv: argv[0] + argv[-1])
    def test_unwritable_output_is_bad_usage(self, tmp_path, argv):
        # a path whose directory is missing exits 2 with one line naming
        # the flag and the path, before the run, not with a traceback
        path = str(tmp_path / "missing" / "x")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools", *argv, path], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert argv[-1] in proc.stderr and path in proc.stderr
        assert not (tmp_path / "missing").exists()

    def test_directory_as_output_is_bad_usage(self, tmp_path, capsys):
        assert tools.main(["kmeans", "--trace-out", str(tmp_path)]) == 2
        assert "--trace-out" in capsys.readouterr().err

    def test_importing_the_cli_loads_no_compiler(self):
        code = ("import json, sys, repro.tools; print(json.dumps(sorted("
                "m for m in sys.modules if m.split('.')[0] == 'repro')))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        assert json.loads(out.stdout) == ["repro", "repro.tools"]

    @pytest.mark.parametrize("modes", [
        ["--critical-path", "--requests"],
        ["--diff", "prev", "latest", "--requests"],
        ["--critical-path", "--diff", "prev", "latest"]])
    def test_analyze_runs_one_mode(self, capsys, modes):
        assert tools.main(["analyze", "kmeans", *modes]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "one mode" in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "kmeans", "--diff", "prev", "latest", "--backend",
         "numpy"],
        ["analyze", "kmeans", "--diff", "prev", "latest", "--count", "3"],
        ["analyze", "kmeans", "--diff", "prev", "latest", "--seed", "1"],
        ["analyze", "kmeans", "--critical-path", "--window", "8"],
        ["analyze", "kmeans", "--history", "h"],
        ["analyze", "kmeans", "--requests", "--history", "h"],
        ["analyze", "kmeans", "--requests", "--window", "8"],
        ["--list", "kmeans"], ["--list", "--profile"],
        ["--list", "--stage", "compiled"]],
        ids=lambda argv: "-".join(a for a in argv if a.startswith("-")))
    def test_a_flag_nothing_reads_is_bad_usage(self, capsys, argv):
        # named in one stderr line, even at its default value, before
        # anything runs
        assert tools.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert argv[-1] in err or argv[-2] in err

    def test_a_closed_stdout_ends_quietly(self):
        # 115 kB of JSON in one write: the child is still writing when
        # the reader closes the pipe after the first line
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.tools", "analyze", "q1",
             "--requests", "--json", "--count", "400"], cwd=ROOT, env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert err == b""

    @pytest.mark.parametrize("argv", [
        ["serve-sim", "--latency-out"], ["serve-sim", "--trace-out"],
        ["serve-sim", "--flame-out"], ["serve-sim", "--metrics-out"],
        ["slo-report", "--spec", str(ROOT / "examples/slo_serving.json"),
         "--out"]], ids=lambda argv: argv[0] + argv[-1])
    def test_json_is_one_document(self, tmp_path, capsys, argv):
        # the "wrote FILE" note goes to stderr, so stdout stays parseable;
        # the SLO holds for lane-packed batches
        path = tmp_path / "x"
        assert tools.main([argv[0], "q1", "--requests", "4", "--clients",
                           "2", "--backend", "numpy", *argv[1:], str(path),
                           "--json"]) == 0
        out, err = capsys.readouterr()
        assert json.loads(out) and path.stat().st_size > 0
        assert str(path) in err

    def test_json_takes_no_metrics_table(self, capsys):
        assert tools.main(["serve-sim", "q1", "--requests", "4", "--json",
                           "--metrics"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--metrics-out" in err

    def test_one_compile_per_run(self, monkeypatch):
        # the observed run prices the compile that was traced and verified
        import repro.bench.apps
        import repro.pipeline
        real, calls = repro.pipeline.compile_program, []

        def counting(prog, target="distributed", **kwargs):
            calls.append((target, kwargs.get("verify", False)))
            return real(prog, target, **kwargs)
        for module in (repro.pipeline, repro.bench.apps, tools):
            monkeypatch.setattr(module, "compile_program", counting,
                                raising=False)
        out = run_cli("gene", "--trace", "--profile", "--verify-each",
                      "--target", "cpu")
        assert "changed the program" in out and "simulated time" in out
        assert calls == [("cpu", True)]


#: what each main-mode view prints, and what each emitter starts with
_VIEW_MARKS = {"--trace": "changed the program", "--report": "applied rules:",
               "--profile": "simulated time", "--metrics": "counters:"}
_EMIT_MARKS = {"ir": "program(", "cpp": "// generated by DMLL (target: c++",
               "cuda": "__global__", "scala": "// generated by DMLL (target: "
                                              "scala"}
_OUTPUTS = {"--trace-out": "t.json", "--flame-out": "f.txt",
            "--metrics-out": "m.prom"}


class TestFlagCombinations:
    """Every subset of the main mode's flags either runs every view it
    asks for or exits 2 with one line: no flag is dropped."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(staged=st.booleans(),
           switches=st.sets(st.sampled_from(sorted(_VIEW_MARKS) + [
               "--verify-each", "--no-transforms"])),
           outputs=st.sets(st.sampled_from(sorted(_OUTPUTS))),
           emit=st.none() | st.sampled_from(sorted(_EMIT_MARKS)),
           target=st.none() | st.sampled_from(["cpu", "distributed", "gpu"]),
           numpy=st.booleans())
    @example(staged=False, switches={"--report"}, outputs=set(),
             emit="cuda", target=None, numpy=False)
    def test_views_compose(self, tmp_path, staged, switches, outputs, emit,
                           target, numpy):
        out_dir = Path(tempfile.mkdtemp(dir=tmp_path))
        argv = ["gene"] + ["--stage", "staged"] * staged + sorted(switches)
        for flag in sorted(outputs):
            argv += [flag, str(out_dir / _OUTPUTS[flag])]
        argv += ["--emit", emit] * bool(emit) + ["--target", target] * bool(
            target) + ["--backend", "numpy"] * numpy
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            rc = tools.main(argv)
        observed = bool(outputs or {"--profile", "--metrics"} & switches)
        unread = (staged and bool(switches or outputs or target or numpy)
                  or numpy and not observed)
        assert rc == (2 if unread else 0), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if rc == 2:
            assert err.getvalue().count("\n") == 1
            return
        text = out.getvalue()
        for flag in switches & set(_VIEW_MARKS):
            assert _VIEW_MARKS[flag] in text, argv
        if emit or not (observed or {"--trace", "--report"} & switches):
            assert _EMIT_MARKS[emit or "ir"] in text, argv
        for flag in outputs:
            assert (out_dir / _OUTPUTS[flag]).stat().st_size > 0, argv


_EXAMPLES = ROOT / "examples"
_SLO = [str(_EXAMPLES / name) for name in ("slo_serving.json",
                                           "slo_chaos.json")]
#: each flag's good values (``None``: a switch); a draw gives at most one
#: flag a value from ``_BAD``
_TRAFFIC = {
    "--clients": ["4", "1"], "--think-ms": ["0", "5"],
    "--rate": ["400", "2000"], "--max-wait-ms": ["0", "20"],
    "--timeout-ms": ["5", "2000"], "--hedge-ms": ["5", "30"],
    "--payloads": ["1", "2"], "--batch": ["1", "8"], "--seed": ["0", "3"],
    "--policy": ["round-robin", "least-loaded", "fastest"],
    "--machines": ["numa", "numa*2,gpunode"],
    "--faults": [str(_EXAMPLES / "faults_outage.json")],
    "--retry": ["1", "3"], "--retry-budget": ["0", "4"],
    "--shed-depth": ["2", "64"], "--degrade-after": ["1", "3"],
    "--breaker": [None],
}
_WRITES = {"--latency-out", "--trace-out", "--flame-out", "--metrics-out",
           "--out"}
_FLAGS = {
    "serve-sim": {**_TRAFFIC, **dict.fromkeys(_WRITES - {"--out"}, [None]),
                  "--metrics": [None], "--json": [None], "--slo": _SLO,
                  "--chaos": [None]},
    "slo-report": {**_TRAFFIC, "--out": [None], "--json": [None]},
    "explain": {"--json": [None], "--target": ["cpu", "distributed", "gpu"],
                "--loop": ["cs", "bktred", "zz"],
                "--explain-diff": ["no-fusion", "no-transforms"]},
}
_BAD = {"--requests": "0", "--rate": "nan", "--think-ms": "-1",
        "--max-wait-ms": "inf", "--timeout-ms": "0", "--hedge-ms": "inf",
        "--payloads": "0", "--batch": "0", "--retry": "0",
        "--retry-budget": "-1", "--shed-depth": "0", "--degrade-after": "0",
        "--machines": "warpdrive", "--faults": str(_EXAMPLES / "no.json"),
        "--slo": str(_EXAMPLES / "no.json"),
        "--spec": str(_EXAMPLES / "no.json"), "--trace-out": "no/t.json",
        "--out": "no/slo.json"}


class TestServeFlagCombinations:
    """Any subset of the flags of ``serve-sim``, ``slo-report`` and
    ``explain``, with ``--backend`` and ``$REPRO_BACKEND`` given or not,
    ends in exit 0, 1 or 2 and never a traceback; stderr carries at most
    one line besides the ``wrote FILE`` notes ``--json`` moves there, and
    under ``--json`` a run's stdout is one JSON document."""

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data(), command=st.sampled_from(sorted(_FLAGS)),
           backend=st.sampled_from([None, "numpy", "reference"]),
           env=st.sampled_from([None, "numpy", "reference", ""]))
    def test_every_draw_ends_in_an_exit_code(self, tmp_path, monkeypatch,
                                             data, command, backend, env):
        # gene is the bundled app the interpreter captures fastest; knn
        # has no dataset; explain takes one app
        argv = [command] + data.draw(st.sampled_from(
            [[], ["knn"], ["nosuch"]] + [["gene"]] * 4
            + [["q1"] if command == "explain" else ["gene", "q1"]]))
        flags = dict.fromkeys(data.draw(st.sets(st.sampled_from(
            sorted(_FLAGS[command])), max_size=5)))
        for flag in flags:
            flags[flag] = data.draw(st.sampled_from(_FLAGS[command][flag]))
        if command != "explain":
            # a closed loop takes 64 requests by default
            flags["--requests"] = data.draw(st.sampled_from(["4", "16"]))
            if backend is not None:
                flags["--backend"] = backend
        spec = data.draw(st.sampled_from(_SLO + [None]))
        if command == "slo-report" and spec is not None:
            flags["--spec"] = spec
        bad = data.draw(st.sampled_from(
            [None] + sorted(set(_BAD) & set(flags))))
        if bad is not None:
            flags[bad] = _BAD[bad]
        out_dir = Path(tempfile.mkdtemp(dir=tmp_path))
        for flag, value in sorted(flags.items()):
            if flag in _WRITES:
                value = str(out_dir / (value or flag[2:]))
            argv += [flag] if value is None else [flag, value]
        out, err = io.StringIO(), io.StringIO()
        with monkeypatch.context() as mp:
            if env is None:
                mp.delenv("REPRO_BACKEND", raising=False)
            else:
                mp.setenv("REPRO_BACKEND", env)
            with redirect_stdout(out), redirect_stderr(err):
                rc = tools.main(argv)
        assert rc in (0, 1, 2), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue(), argv
        lines = [line for line in err.getvalue().splitlines()
                 if not line.startswith("wrote ")]
        assert len(lines) <= 1, (argv, err.getvalue())
        if rc != 2 and "--json" in argv:
            json.loads(out.getvalue())


class TestPrettyPrinter:
    def test_round_trips_structures(self):
        from repro import frontend as F
        from repro.core import types as T

        def fn(xs):
            g = xs.filter(lambda x: x > 0).group_by(lambda x: x % 2)
            return g.map(lambda b: F.where(b.count() > 1,
                                           lambda: b.sum(), lambda: 0))
        prog = F.build(fn, [F.InputSpec("xs", T.Coll(T.INT), True)])
        text = pretty(prog)
        # all structural features render
        for marker in ("BucketCollect", "cond", "value", "if", "then",
                       "else", "return"):
            assert marker in text, marker
