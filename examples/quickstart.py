"""DMLL quickstart: write a parallel-pattern program, compile it for a
distributed target, inspect what the compiler did, and run it on the
simulated 4-socket NUMA machine.

Run:  python examples/quickstart.py
"""

from repro import frontend as F
from repro.core import pretty
from repro.core import types as T
from repro.obs.export import profile_report
from repro.pipeline import compile_program
from repro.runtime import DMLL_CPP, NUMA_BOX, ExecOptions, simulate


def program(xs):
    """Mean of the squares of the positive elements — three patterns that
    the compiler fuses into a single traversal."""
    pos = xs.filter(lambda x: x > 0.0)
    total = pos.map(lambda x: x * x).sum()
    return total / pos.count()


def main():
    # 1. stage: the function runs once against symbolic collections and is
    #    recorded as a DMLL multiloop program
    prog = F.build(program, [F.vector_input("xs", partitioned=True)])
    print("=== staged program (one loop per pattern)")
    print(pretty(prog))

    # 2. compile: fusion + analyses; the partitioned input is chunked by
    #    the runtime directory, all three patterns share one traversal
    compiled = compile_program(prog, target="distributed")
    print("\n=== after the compiler pipeline")
    print(pretty(compiled.program))
    print("\napplied rewrites:", compiled.report.applied_rules or "fusion only")
    print("warnings:", compiled.warnings or "none")

    # 3. execute on the simulated 4-socket machine: the data is real, the
    #    clock is the machine model
    data = [float(x % 17 - 5) for x in range(10_000)]
    result = simulate(compiled, {"xs": data}, NUMA_BOX, DMLL_CPP,
                      ExecOptions(cores=48))
    print("\n=== execution on the 48-core NUMA box")
    print("result:", result.results[0])
    print(profile_report(result))

    expected = (sum(x * x for x in data if x > 0)
                / sum(1 for x in data if x > 0))
    assert abs(result.results[0] - expected) < 1e-9
    print("\nmatches the plain-Python oracle: OK")


if __name__ == "__main__":
    main()
