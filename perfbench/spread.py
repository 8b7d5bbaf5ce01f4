#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, baselines and output references.

    python3 perfbench/spread.py --workloads bulk_tree,dense_tree --seeds 1-10

Runs perfbench/run.py once per (workload, seed) and prints, for every
metric, its median and its quartile spread (Q3 - Q1) / median; with
--trace 0 it flags end-to-end spreads above a third of the metric's bound.

  --raw-dir DIR          keep each run's raw runner JSON
  --summary-out FILE     merge the medians and quartiles into FILE (the
                         recorded baseline, perfbench/baseline.json)
  --write-references     record the observed outputs of these seeds as the
                         references in perfbench/spec.json (after a change
                         that is meant to alter the trajectory)
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

# Per-seed tolerances of the output check; the envelope for unrecorded
# seeds widens the recorded range by the tolerance plus half the range.
TOLERANCE = {"ctc_displacement_um": 0.1, "rbc_count": 3, "hematocrit": 0.01}


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def hardware():
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs"


def references(observations):
    """Reference block for spec.json from {seed: observation}."""
    by_seed = {}
    for seed, o in sorted(observations.items()):
        by_seed[str(seed)] = {
            "ctc_displacement_um": [round(v, 4) for v in o["ctc_displacement_um"]],
            "rbc_count": o["rbc_count"],
            "hematocrit": round(o["hematocrit"], 5)}
    envelope = {}
    for key in TOLERANCE:
        vals = [v[key] for v in by_seed.values()]
        columns = list(zip(*vals)) if isinstance(vals[0], list) else [vals]
        bounds = []
        for col in columns:
            lo, hi = min(col), max(col)
            margin = TOLERANCE[key] + 0.5 * (hi - lo)
            bounds.append([round(lo - margin, 4), round(hi + margin, 4)])
        envelope[key] = bounds if isinstance(vals[0], list) else bounds[0]
    return {"tolerance": TOLERANCE, "by_seed": by_seed, "envelope": envelope}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--raw-dir", type=Path)
    ap.add_argument("--summary-out", type=Path)
    ap.add_argument("--write-references", action="store_true")
    args = ap.parse_args()
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    raw_dir = args.raw_dir or HERE.parent / ".bench_build" / "spread"
    raw_dir.mkdir(parents=True, exist_ok=True)
    summary = {}
    if args.summary_out and args.summary_out.is_file():
        summary = json.loads(args.summary_out.read_text())
    summary["hardware"] = hardware()
    summary["run_seconds"] = bench["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    spec_path = HERE / "spec.json"
    spec = json.loads(spec_path.read_text())
    ok = True
    for wl in args.workloads.split(","):
        values, observations, seeds = {}, {}, parse_seeds(args.seeds)
        for seed in seeds:
            raw_file = raw_dir / f"{wl}.{seed}.{args.trace}.json"
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace), "--raw-out", str(raw_file)]
            out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                 check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"]:
                ok = False
                print(f"{wl} seed {seed}: NOT correct\n{out}", flush=True)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            obs = json.loads(raw_file.read_text()).get("observation")
            if obs and obs.get("taken"):
                observations[seed] = obs
        print(f"{wl}:", flush=True)
        units = {m["name"]: m["unit"] for m in bench[section]}
        entry = summary.setdefault("workloads", {}).setdefault(wl, {})
        entry[f"{section}_seeds"] = seeds
        recorded = entry.setdefault(section, {})
        for name, vals in values.items():
            med = statistics.median(vals)
            rec = {"median": med, "unit": units[name]}
            line = f"  {name:32s} median {med:.6g} {units[name]}"
            if len(vals) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                rec.update(q1=q1, q3=q3, spread=round(spread, 4))
                line += f"  spread {spread:.4f}"
                if name in bounds:
                    line += f"  bound {bounds[name]}"
                    if name != "setup_s" and spread > bounds[name] / 3:
                        line += "  > bound/3"
                        ok = False
            recorded[name] = rec
            print(line, flush=True)
        if args.write_references and observations:
            spec["workloads"][wl]["references"] = references(observations)
    if args.summary_out:
        args.summary_out.write_text(json.dumps(summary, indent=1) + "\n")
    if args.write_references:
        spec_path.write_text(json.dumps(spec, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
