"""Self-tests of the benchmark harness.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def refs():
    return json.loads(run.REFERENCES.read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_regenerates_same_ops(workload):
    assert workloads.ops(workload, 7) == workloads.ops(workload, 7)
    code = f"import json, workloads; print(json.dumps(workloads.ops({workload!r}, 7)))"
    for hashseed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", code], cwd=BENCH, capture_output=True,
                             text=True, check=True, env={"PYTHONHASHSEED": hashseed}).stdout
        assert json.loads(out) == workloads.ops(workload, 7)


@pytest.mark.parametrize("workload", ["profile-wide", "factor-scan"])
def test_seeds_vary_the_ops_within_the_referenced_set(workload, refs):
    keys = {workloads.op_key(op) for op in workloads.all_ops(workload)}
    assert keys == set(refs[workload])
    seen = set()
    for seed in range(40):
        ops = [workloads.op_key(op) for op in workloads.ops(workload, seed)]
        assert set(ops) <= keys
        seen.add(tuple(ops))
    assert len(seen) > 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_writes_the_same_bytes(workload, refs, tmp_path):
    run.WORK.mkdir(exist_ok=True)
    bench = run.Pass(workload, 3, refs)
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    _, problems, _ = bench.run(keep_in=plain)
    assert problems and not any(problems)
    tracer = Tracer()
    tracer.install()
    try:
        _, problems, _ = bench.run(keep_in=traced)
    finally:
        tracer.uninstall()
    assert not any(problems)
    assert tracer.calls, "the traced pass recorded no spans"
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in traced.iterdir())
    for name in names:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name


def test_tampered_artifact_counts_as_failed(refs, tmp_path):
    run.WORK.mkdir(exist_ok=True)
    bench = run.Pass("factor-scan", 5, refs)
    bench.ops = bench.ops[2:4]
    _, problems, _ = bench.run(keep_in=tmp_path)
    assert problems == [None, None]
    artifact = tmp_path / f"000.{bench.ops[0]['format']}"
    artifact.write_bytes(artifact.read_bytes() + b"\n")
    expected = refs["factor-scan"][workloads.op_key(bench.ops[0])]
    assert run._artifact_problem(artifact, expected) == "artifact differs from its reference"

    key = workloads.op_key(bench.ops[1])
    bench.refs = dict(bench.refs, **{key: "0" * 64})
    _, problems, _ = bench.run()
    assert problems[0] is None and problems[1] is not None


def test_failed_status_counts_as_failed(tmp_path):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"status": "fail"}))
    digest = run._sha256(report)
    assert run._artifact_problem(report, digest) == "claim status 'fail'"


def test_tracer_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    assert names == [name for name, _, _ in PER_LAYER]
    assert set(Tracer().metrics()) | {"trace_overhead_s", "setup.import_s"} == set(names)


def test_tracer_uninstall_restores_the_package():
    from periwords import cli, kernels, periods, words

    before = (kernels.active, periods.profile, cli.profile, words.WordSource.prefix,
              dict(cli._RUNNERS))
    tracer = Tracer()
    tracer.install()
    assert kernels.active is not before[0] and cli.profile is not before[2]
    tracer.uninstall()
    after = (kernels.active, periods.profile, cli.profile, words.WordSource.prefix,
             dict(cli._RUNNERS))
    assert after == before


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "factor-scan", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_setup_probe_calls_every_live_kernel():
    import setup_probe
    from periwords import kernels

    called = set()

    class Recorder:
        def __getattr__(self, name):
            called.add(name)
            return getattr(kernels.python_kernels(), name)

    setup_probe.call_every_kernel(Recorder())
    assert called == set(kernels.KERNEL_NAMES) - {"smaller_than_proper_suffixes"}
