"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 perfbench/spread.py --workloads acceptance,factor-scan --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --write-baseline perfbench/baseline.json

Every run is untraced.  For every workload and end-to-end metric it prints
the median, the first and third quartiles of the per-seed values, and the
spread (q3 - q1) / median next to the metric's bound from BENCHMARK.json,
called steady when it is below a third of the bound.  --write-baseline stores
those figures with each workload's run metadata, for ``run.py --compare``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# metadata that is the same for every run of a set
RUN_CONSTANT = ("backend", "numba", "python", "numpy", "git_sha", "nproc", "seconds", "trace",
                "workload")


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--write-baseline", metavar="PATH")
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    baseline = {}
    for workload in args.workloads.split(","):
        records, metas = [], []
        for seed in args.seeds:
            meta, record = run_once(workload, seed, args.seconds)
            records.append(record)
            metas.append(meta)
            values = " ".join(f"{k}={v['value']:.4f}" for k, v in record["metrics"].items()
                              if k in bounds)
            print(f"{workload} seed={seed} correct={record['correct']} "
                  f"failed={record['failed']}/{record['attempted']} {values}", flush=True)
        metrics = {}
        for name in records[0]["metrics"]:
            metrics[name] = summarize([r["metrics"][name]["value"] for r in records])
            metrics[name]["unit"] = records[0]["metrics"][name]["unit"]
            m = metrics[name]
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and m["spread"] is not None:
                verdict = "steady" if m["spread"] < bound / 3 else "NOT steady"
            print(f"{workload:<13} {name:<44} median={m['median']:.4f} q1={m['q1']:.4f} "
                  f"q3={m['q3']:.4f} spread={m['spread'] if m['spread'] is None else round(m['spread'], 4)} "
                  f"bound={bound} {verdict}", flush=True)
        raw = {}
        for name in ("raw_wall_s", "raw_setup_s"):
            if name in metas[0]:
                raw[name] = summarize([m[name] for m in metas])
                print(f"{workload:<13} {name:<44} median={raw[name]['median']:.4f} "
                      f"spread={round(raw[name]['spread'], 4)} (unscaled wall seconds)", flush=True)
        meta = {k: v for k, v in metas[-1].items() if k in RUN_CONSTANT}
        baseline[workload] = {
            "meta": meta, "seeds": args.seeds, "raw": raw,
            "failed": sum(r["failed"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "metrics": metrics,
        }
    if args.write_baseline:
        Path(args.write_baseline).write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n",
                                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
