#!/usr/bin/env python3
"""Repository benchmark: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench_runner (the simulation
library from src/ plus perfbench/runner.cpp) into .bench_build/ -- or into
$CARGO_TARGET_DIR, taken relative to the root -- runs the workload, checks
its outputs against perfbench/spec.json, prints every metric by name with
its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 the per-layer ones. Exits non-zero without a result when the
program cannot be built or the runner dies.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchlib  # noqa: E402

RUNNER_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simulation sources under {ROOT / 'src'}")
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs,
                    "--target", "perfbench_runner"],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench_runner"


def run_runner(cmd, env):
    """Run the runner in its own process group, so a timeout also stops
    the rank processes it forked; returns its stdout."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, env=env, preexec_fn=os.setpgrp)
    try:
        stdout, _ = proc.communicate(timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"runner did not finish in {RUNNER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited with {proc.returncode}")
    return stdout


def check_observation(obs, refs, seed):
    """Compare the outputs observed at the check step with the recorded
    references: tight tolerances for a recorded seed, the recorded
    envelope for any other. Returns a list of failures."""
    if not refs:
        return []
    if not obs or not obs.get("taken"):
        return ["no observation at the check step"]
    problems = []
    tol = refs["tolerance"]
    exact = refs["by_seed"].get(str(seed))
    env = refs["envelope"]
    for key in ("ctc_displacement_um", "rbc_count", "hematocrit"):
        got = obs[key]
        got_list = got if isinstance(got, list) else [got]
        if exact is not None:
            want = exact[key]
            want_list = want if isinstance(want, list) else [want]
            for g, w in zip(got_list, want_list):
                if abs(g - w) > tol[key]:
                    problems.append(
                        f"{key} {got} differs from seed {seed}'s reference "
                        f"{want} by more than {tol[key]}")
                    break
        else:
            bounds = env[key] if isinstance(got, list) else [env[key]]
            for g, (lo, hi) in zip(got_list, bounds):
                if not lo <= g <= hi:
                    problems.append(
                        f"{key} {got} outside the reference envelope {env[key]}")
                    break
    return problems


def end_to_end(raw):
    rate, p50, p90, n_episodes = benchlib.episode_stats(
        raw["step_ms"], int(raw["episode_steps"]))
    return {
        "steps_per_s": rate,
        "step_ms_p50": p50.value,
        "step_ms_p90": p90.value,
        "setup_s": benchlib.median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "checkpoint_s": benchlib.median(raw["checkpoint_s"]),
        "checkpoint_mb": raw["checkpoint_bytes"] / 1e6,
    }, {"steps_per_s": f"{n_episodes} episodes",
        "step_ms_p50": f"{p50.samples} steps x {n_episodes} episodes",
        "step_ms_p90": f"{p90.samples} steps x {n_episodes} episodes",
        "setup_s": f"{len(raw['setup_s'])} set-ups",
        "checkpoint_s": f"{len(raw['checkpoint_s'])} round trips"}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--raw-out", type=Path,
                    help="also write the runner's raw JSON here")
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    problems = benchlib.validate_benchmark(bench)
    if problems:
        raise RuntimeError("BENCHMARK.json: " + "; ".join(problems))
    if args.workload not in spec["workloads"]:
        raise RuntimeError(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        raise RuntimeError("--seed must be >= 0")

    wl = spec["workloads"][args.workload]
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    runner = build(build_dir)
    workdir = build_dir / "run"
    workdir.mkdir(parents=True, exist_ok=True)

    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    # Keep a single process's exec workers on fixed cores, which narrows
    # the run-to-run spread. Never for forked ranks: they would inherit the
    # parent's binding and share one core.
    env = dict(os.environ)
    if wl["ranks"] == 1:
        env.setdefault("OMP_PROC_BIND", "close")
        env.setdefault("OMP_PLACES", "cores")
    stdout = run_runner(cmd, env)
    raw = json.loads(stdout.strip().splitlines()[-1])
    if args.raw_out:
        args.raw_out.write_text(json.dumps(raw) + "\n")

    failures = [f"{name}: {c['detail'] or 'failed'}"
                for name, c in raw["checks"].items() if not c["ok"]]
    attempted = int(raw["attempted"]) + 1
    failed = int(raw["failed"])
    ref_problems = check_observation(raw.get("observation"),
                                     wl.get("references"), args.seed)
    if ref_problems:
        failed += 1
        failures += ref_problems

    if args.trace:
        section = bench["per_layer"]
        values = raw["layers"]
        counts = {}
        missing = [m["name"] for m in section if m["name"] not in values]
        if missing:
            raise RuntimeError(f"runner reported no value for {missing}")
    else:
        section = bench["end_to_end"]
        values, counts = end_to_end(raw)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in section}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"workers {raw.get('workers')} ranks {raw.get('ranks', 1)} "
          f"timed steps {len(raw['step_ms'])}")
    for name, m in metrics.items():
        n = f"  (median of {counts[name]})" if name in counts else ""
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}{n}")
    for f in failures:
        print(f"  FAILED {f}")
    print(f"  fail_frac {failed / attempted:.6g} ({failed}/{attempted})")
    result = {"correct": not failures and failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)
