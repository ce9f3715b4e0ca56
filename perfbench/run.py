"""The periwords benchmark: run one workload, check every output, print metrics.

Run from the repository root:

    python3 perfbench/run.py --workload factor-scan --seed 1 --seconds 36 --trace 0

``--workload`` is acceptance, profile-wide, factor-scan or all (each
workload in a process of its own, one after the other).  A run makes whole
passes of the workload for about ``--seconds`` seconds through the public
entry points (``cli.run_batch``/``cli.run``), writing artifacts into a fresh
directory under ``.perfbench/`` and checking each against its stored sha256.
Between passes it times fresh interpreters importing the package.  With
``--trace 0`` it reports the end-to-end metrics.  ``wall_s`` is one pass
with every op at its median over the run's passes, in reference-speed
seconds: each op's time is scaled by CAL_REF_S over the time a fixed
calibration loop took around it, because the speed of a shared CPU drifts
by 20-60% over seconds and minutes.  ``setup_s`` is the median of the
SETUP_PROBES fresh interpreters, spread over the run and scaled by the run's
median calibration, and ``peak_rss_mb`` the process's peak resident memory.
The unscaled figures go into the metadata line (``raw_wall_s``,
``raw_setup_s``).  With ``--trace 1`` it alternates untraced and traced
passes and reports the median per-layer times (unscaled) and counters of the
traced passes, plus ``trace_overhead_s`` (the same typical pass, traced minus
untraced); the spans of the last traced pass go to
``.perfbench/trace-<workload>.json``.  The last line of stdout is a JSON object
with the keys correct, attempted, failed and metrics; the line before it
holds the run's metadata.

Other modes:

    python3 perfbench/run.py --micro             # per-kernel / per-family micro table
    python3 perfbench/run.py --write-references  # regenerate references.json
    python3 perfbench/run.py ... --compare perfbench/baseline.json
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCES = HERE / "references.json"
SETUP_PROBES = 15
OK_STATUSES = ("ok", "pass", "windowed-pass")

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Fastest time of calibrate() seen on the 2-vCPU Xeon the baseline was
# recorded on (Python 3.11); the unit of the reference-speed seconds below.
CAL_REF_S = 0.0022
_CAL_LETTERS = np.frombuffer(bytes(range(256)) * 8, np.uint8)


def calibrate() -> float:
    """Seconds a fixed loop of numpy-scalar reads and integer arithmetic takes now.

    The python kernels spend their time on the same kind of work, so this
    tracks how much slower than CAL_REF_S the shared CPU runs at the moment
    (load from other tenants moves it by 20-60% for seconds or minutes).
    """
    t0 = time.perf_counter()
    hits = 0
    for i in range(1, 2000):
        if _CAL_LETTERS[i] == _CAL_LETTERS[i - 1]:
            hits += 1
    total = 0
    for i in range(30_000):
        total += i * i
    return time.perf_counter() - t0


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _artifact_problem(path: Path, expected: str | None) -> str | None:
    """Why the artifact at path is wrong, or None when it is right."""
    if not path.is_file():
        return "no artifact written"
    if expected is None:
        return "no reference digest for this op"
    if _sha256(path) != expected:
        return "artifact differs from its reference"
    if path.suffix == ".json":
        status = json.loads(path.read_text(encoding="utf-8")).get("status")
        if status is not None and status not in OK_STATUSES:
            return f"claim status {status!r}"
    return None


class Pass:
    """Runs the ops of one workload into a fresh directory and checks them."""

    def __init__(self, workload: str, seed: int, refs: dict):
        from periwords import cli

        self.cli = cli
        self.batch = workload in workloads.BATCH_WORKLOADS
        self.ops = workloads.ops(workload, seed)
        self.refs = refs.get(workload, {})

    def run(self, keep_in: Path | None = None):
        """One pass: (timed steps, one problem per op, bytes written).

        The timed steps are the ops, in order, each as (seconds, mean of the
        calibrate() times just before and just after it); a batch pass adds
        a first step for what cli.run_batch spends outside its runs.  The artifacts go to a fresh
        directory that is removed afterwards, or to keep_in.
        """
        out_dir = keep_in or Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                if self.batch:
                    steps, problems = self._run_batch(out_dir)
                else:
                    steps, problems = self._run_ops(out_dir)
            written = sum(p.stat().st_size for p in out_dir.iterdir())
        finally:
            if keep_in is None:
                shutil.rmtree(out_dir, ignore_errors=True)
        return steps, problems, written

    def _run_ops(self, out_dir: Path):
        times, cals, problems = [], [calibrate()], []
        for idx, op in enumerate(self.ops):
            path = out_dir / f"{idx:03d}.{op['format']}"
            t0 = time.perf_counter()
            try:
                code = self.cli.run(self.cli.ExperimentConfig.from_json(dict(op, out=str(path))))
            except Exception as exc:  # an op that raises is a failed op
                code, problem = None, f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - t0)
            cals.append(calibrate())
            if code is None:
                problems.append(problem)
            elif code != 0:
                problems.append(f"exit code {code}")
            else:
                problems.append(_artifact_problem(path, self.refs.get(workloads.op_key(op))))
        return _bracketed(times, cals), problems

    def _run_batch(self, out_dir: Path):
        runners = self.cli._RUNNERS
        originals = dict(runners)
        times, cals = [], []

        def timed(runner):
            def call(cfg):
                cals.append(calibrate())
                t0 = time.perf_counter()
                try:
                    return runner(cfg)
                finally:
                    times.append(time.perf_counter() - t0)
            return call

        runners.update({action: timed(r) for action, r in originals.items()})
        t0 = time.perf_counter()
        try:
            code = self.cli.run_batch(str(workloads.ACCEPTANCE_CONFIG), str(out_dir))
        except Exception as exc:
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            total = time.perf_counter() - t0
            runners.update(originals)
        cals.append(calibrate())
        steps = [(total - sum(times) - sum(cals[:-1]), statistics.median(cals))]
        steps += _bracketed(times, cals)
        summary = out_dir / "summary.json"
        problems = [_artifact_problem(summary, self.refs.get("summary.json"))]
        if code != 0:
            problems[0] = f"batch exit code {code}"
        rows = json.loads(summary.read_text(encoding="utf-8"))["runs"] if summary.is_file() else []
        for idx in range(len(self.ops)):
            row = rows[idx] if idx < len(rows) else {"status": None, "out": None}
            if row["status"] not in OK_STATUSES or not row["out"]:
                problems.append(f"run {idx} status {row['status']!r}: {row.get('error')}")
            else:
                problems.append(_artifact_problem(out_dir / row["out"], self.refs.get(row["out"])))
        return steps, problems


class SetupProbes:
    """Times fresh interpreters importing periwords, picking the backend and
    parsing the workload's configs and descriptors.

    run_workload takes probes between passes, as many as the share of the
    run gone by calls for, so the probes are spread over the run instead of
    sharing one moment's CPU speed.
    """

    def __init__(self, workload: str, seed: int):
        self.ops_file = WORK / f"setup-ops-{workload}-{os.getpid()}.json"
        self.ops_file.write_text(json.dumps(workloads.ops(workload, seed)), encoding="utf-8")
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(self.ops_file)]
        self.walls, self.imports = [], []

    def catch_up(self, share: float) -> None:
        """Probe until share of the SETUP_PROBES probes have been taken."""
        while len(self.walls) < SETUP_PROBES * share:
            self.probe()

    def probe(self) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60)
        self.walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        self.imports.append(json.loads(proc.stdout)["import_s"])

    def results(self, calibration_s: float) -> tuple[float, float, float]:
        """Median probe in reference-speed seconds, in wall seconds, and the
        median import time alone.

        A probe is too short to scale by the calibrations just around it (a
        2 ms loop reads 20-50% apart from one call to the next), so the
        median probe is scaled by calibration_s, the run's median calibration.
        """
        self.catch_up(1)
        self.ops_file.unlink()
        wall = statistics.median(self.walls)
        return wall * CAL_REF_S / calibration_s, wall, statistics.median(self.imports)


def run_metadata(workload: str, seed: int, args) -> dict:
    import numpy

    from periwords import kernels

    sha = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": kernels.BACKEND,
        "numba": kernels.HAVE_NUMBA,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "nproc": os.cpu_count(),
    }


def _bracketed(times: list[float], cals: list[float]) -> list[tuple[float, float]]:
    """Pair each op's seconds with the mean of the calibrations around it."""
    return [(t, (cals[i] + cals[i + 1]) / 2) for i, t in enumerate(times)]


def typical_pass(passes: list[list[tuple[float, float]]], scaled: bool = True) -> float:
    """One pass with each step at its median over the passes.

    Scaled, each step's seconds are first converted to reference-speed
    seconds by the calibrations around it.
    """
    if scaled:
        return sum(statistics.median(t * CAL_REF_S / c for t, c in samples)
                   for samples in zip(*passes))
    return sum(statistics.median(t for t, _ in samples) for samples in zip(*passes))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns the result record and the raw figures
    behind it."""
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    setup = SetupProbes(workload, seed)
    bench = Pass(workload, seed, refs)
    tracer = Tracer() if trace else None
    plain, traced, layer_samples = [], [], []
    attempted = failed = 0
    problems_seen: list[str] = []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        setup.catch_up((time.perf_counter() - start) / seconds)
        if use_trace:
            tracer.reset()
            tracer.install()
        try:
            steps, problems, written = bench.run()
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(steps)
        if use_trace:
            sample = tracer.metrics()
            sample["cli.bytes_written"] = written
            layer_samples.append(sample)
        attempted += len(problems)
        bad = [p for p in problems if p is not None]
        failed += len(bad)
        problems_seen.extend(bad)
        elapsed = time.perf_counter() - start
        done = len(plain) >= 1 and (tracer is None or len(traced) >= 1)
        pass_s = statistics.median(sum(t for t, _ in steps) for steps in plain + traced)
        if done and elapsed + pass_s > seconds:
            break
    calibration_s = statistics.median(c for steps in plain for _, c in steps)
    setup_s, raw_setup_s, import_s = setup.results(calibration_s)
    for p in problems_seen[:10]:
        print(f"perfbench: {workload}: {p}", file=sys.stderr)
    if tracer is not None:
        metrics = {name: statistics.median(s[name] for s in layer_samples)
                   for name in layer_samples[0]}
        metrics["trace_overhead_s"] = typical_pass(traced) - typical_pass(plain)
        metrics["setup.import_s"] = import_s
        tracer.write(WORK / f"trace-{workload}.json")
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_s": typical_pass(plain),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
    record = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    raw = {
        "passes": len(plain), "traced_passes": len(traced),
        "raw_wall_s": typical_pass(plain, scaled=False), "raw_setup_s": raw_setup_s,
        "setup_probes": len(setup.walls), "calibration_median_s": calibration_s,
    }
    return record, raw


def compare(record: dict, meta: dict, baseline_path: str) -> None:
    """Print each metric against the baseline median for the same workload."""
    base = json.loads(Path(baseline_path).read_text(encoding="utf-8")).get(meta["workload"])
    if base is None:
        print(f"compare: no baseline for {meta['workload']}")
        return
    theirs = (base["meta"]["backend"], base["meta"]["numba"])
    if theirs != (meta["backend"], meta["numba"]):
        print(f"compare: not comparable: baseline backend={theirs[0]} numba={theirs[1]}, "
              f"this run backend={meta['backend']} numba={meta['numba']}")
        return
    for name, m in record["metrics"].items():
        ref = base["metrics"].get(name)
        if ref:
            print(f"compare: {name:<16} {m['value']:.4f} vs {ref['median']:.4f} "
                  f"{m['unit']} ({m['value'] / ref['median']:.3f}x)")


def write_references() -> None:
    """Run every op any seed can produce once and store its artifact digest."""
    from periwords import cli

    refs = {}
    for workload in workloads.WORKLOADS:
        out_dir = Path(tempfile.mkdtemp(prefix="refs-", dir=WORK))
        digests = {}
        with contextlib.redirect_stderr(io.StringIO()):
            if workload in workloads.BATCH_WORKLOADS:
                cli.run_batch(str(workloads.ACCEPTANCE_CONFIG), str(out_dir))
                digests = {p.name: _sha256(p) for p in sorted(out_dir.iterdir())}
            else:
                for idx, op in enumerate(workloads.all_ops(workload)):
                    path = out_dir / f"{idx:04d}.out"
                    cli.run(cli.ExperimentConfig.from_json(dict(op, out=str(path))))
                    digests[workloads.op_key(op)] = _sha256(path)
        shutil.rmtree(out_dir)
        refs[workload] = digests
        print(f"{workload}: {len(digests)} digests", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _print_record(record: dict, meta: dict, compare_with: str | None) -> None:
    for name, m in record["metrics"].items():
        print(f"{meta['workload']:<13} {name:<44} {m['value']:>16.6f} {m['unit']}")
    print(f"{meta['workload']:<13} {'error_rate':<44} "
          f"{record['failed'] / record['attempted']:>16.6f} failed/attempted")
    if compare_with:
        compare(record, meta, compare_with)
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(record))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", metavar="BASELINE_JSON")
    ap.add_argument("--micro", action="store_true", help="print the per-layer micro table")
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args(argv)

    if not (SRC / "periwords" / "__init__.py").is_file():
        print(f"perfbench: no periwords package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.write_references:
        write_references()
        return 0
    if args.micro:
        import micro

        micro.main()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args)
    record, raw = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_record(record, dict(run_metadata(args.workload, args.seed, args), **raw), args.compare)
    return 0


def run_all(args) -> int:
    """Run each workload in a process of its own, so that its peak_rss_mb and
    its imports belong to that workload alone, and pass its output through."""
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.compare:
            cmd += ["--compare", args.compare]
        sys.stdout.flush()
        code = subprocess.run(cmd).returncode or code
    return code


if __name__ == "__main__":
    sys.exit(main())
