"""Coverage for the CLI inspector, the pretty printer, and end-to-end
driver behaviors (iterative convergence) not covered elsewhere."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from repro import tools
from repro.apps.kmeans import kmeans
from repro.apps.logreg import logreg
from repro.core import pretty
from repro.data.datasets import gaussian_clusters, logistic_data


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
        root = Path(__file__).resolve().parents[1]
        path = str(tmp_path / "missing" / "x")
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.tools", *argv, path], cwd=root,
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert argv[-1] in proc.stderr and path in proc.stderr
        assert not (tmp_path / "missing").exists()

    def test_directory_as_output_is_bad_usage(self, tmp_path, capsys):
        assert tools.main(["kmeans", "--trace-out", str(tmp_path)]) == 2
        assert "--trace-out" in capsys.readouterr().err

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


class TestIterativeDrivers:
    def test_kmeans_converges_on_separated_clusters(self):
        matrix, labels = gaussian_clusters(120, 4, k=3, spread=0.3)
        centers = kmeans(matrix, k=3, iterations=8)
        # every point should sit close to its assigned center
        import math
        for row in matrix[:30]:
            best = min(sum((a - b) ** 2 for a, b in zip(row, c))
                       for c in centers)
            assert math.sqrt(best) < 3.0

    def test_logreg_separates(self):
        x, y = logistic_data(150, 4)
        theta = logreg(x, y, alpha=0.3, iterations=25)
        correct = 0
        for xi, yi in zip(x, y):
            score = sum(t * v for t, v in zip(theta, xi))
            correct += int((score > 0) == (yi > 0.5))
        assert correct / len(x) > 0.8
