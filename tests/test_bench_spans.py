"""The benchmark tracer (bench/workload.py) still records every span it expects.

The tracer wraps public functions at the names the program calls them
through. A change that routes a call around one of those names leaves its
span empty, and this test fails. The verbs run on the benchmark's own
configurations, shortened; the ``cli.*`` spans are opened by the benchmark
driver itself and are not checked here.
"""

import importlib.util
from pathlib import Path

import pytest

from fremond.cli import main

ROOT = Path(__file__).resolve().parents[1]

SHORTER = {
    "cosine1d": ["run.t_end=0.0078125"],
    "weakstrong": ["experiment.levels=[16, 32]", "run.t_end=0.00390625"],
}


@pytest.fixture(scope="module")
def workload():
    spec = importlib.util.spec_from_file_location("bench_workload", ROOT / "bench" / "workload.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(SHORTER))
def test_every_expected_span_records_calls(workload, name, tmp_path):
    wl = workload.WORKLOADS[name]
    tracer = workload.Tracer()
    tracer.install()
    try:
        for verb in wl.verbs:
            argv = workload.verb_argv(verb, wl, 0, tmp_path)
            if verb != "check":
                argv[-2:-2] = [tok for ov in SHORTER[name] for tok in ("--override", ov)]
            assert main(argv) == 0
    finally:
        tracer.restore()
    missing = [s for s in wl.spans if not s.startswith("cli.") and tracer.count(s) == 0]
    assert missing == []
    assert tracer.convex, "no Potential.convex call was seen inside a step"
