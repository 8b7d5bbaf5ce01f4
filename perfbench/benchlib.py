"""Helpers of the repository benchmark: percentiles, names, schema checks.

Kept free of I/O so perfbench/tests can exercise them directly.
"""

import math
import re
from typing import NamedTuple

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

# p90 is only reported over enough samples that ten lie beyond it.
P90_MIN_SAMPLES = 100


class Percentile(NamedTuple):
    value: float
    samples: int


def valid_name(name):
    """Metric / workload name: a letter or digit, then up to 63 of
    letters, digits, '_', '.' and '-'."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def nearest_rank(samples, pct, min_samples=1):
    """Nearest-rank percentile: the smallest sample with at least pct % of
    the samples at or below it. Refuses fewer than min_samples samples."""
    if not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    n = len(samples)
    if n < max(1, min_samples):
        raise ValueError(
            f"p{pct:g} needs at least {max(1, min_samples)} samples, got {n}")
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * n)
    return Percentile(float(ordered[rank - 1]), n)


def p50(samples):
    return nearest_rank(samples, 50)


def p90(samples):
    return nearest_rank(samples, 90, P90_MIN_SAMPLES)


def episodes(samples, size):
    """Consecutive chunks of `size` samples; a trailing partial chunk is
    dropped."""
    if size < 1:
        raise ValueError("episode size must be >= 1")
    return [samples[i:i + size] for i in range(0, len(samples) - size + 1, size)]


def episode_stats(step_ms, size):
    """Throughput, p50 and p90 of per-step times, each the median over
    episodes of `size` steps, so a burst of host noise that slows one
    episode does not move the run's figures. Returns (steps_per_s, p50, p90,
    episode count); p50 and p90 carry the per-episode sample count."""
    eps = episodes(step_ms, size)
    if not eps:
        raise ValueError(f"no complete episode of {size} steps in "
                         f"{len(step_ms)} samples")
    rate = median([len(e) / (sum(e) / 1e3) for e in eps])
    p50_ = Percentile(median([p50(e).value for e in eps]), size)
    p90_ = Percentile(median([p90(e).value for e in eps]), size)
    return rate, p50_, p90_, len(eps)


def median(values):
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else 0.5 * (ordered[mid - 1] + ordered[mid])


_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end",
             "per_layer"}


def validate_benchmark(doc):
    """Check a BENCHMARK.json document against the benchmark contract.
    Returns a list of problems (empty when the document is valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["document is not an object"]
    if set(doc) != _TOP_KEYS:
        errors.append(f"top-level keys {sorted(doc)} != {sorted(_TOP_KEYS)}")

    command = doc.get("command")
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in command)):
        errors.append("command must be 1..32 strings of <= 200 characters")
    else:
        for c in command:
            if c.startswith("/") or ".." in c.split("/"):
                errors.append(f"command argument {c!r} leaves the checkout")

    paths = doc.get("paths")
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths must list 1..16 directories")
        paths = []
    for p in paths:
        if (not isinstance(p, str) or not PATH_RE.match(p) or p.startswith("/")
                or ".." in p.split("/")):
            errors.append(f"bad path {p!r}")

    rs = doc.get("run_seconds")
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        errors.append("run_seconds must be a whole number in 1..60")

    names = []
    workloads = doc.get("workloads")
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        errors.append("workloads must list 2..8 entries")
        workloads = []
    for w in workloads:
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            errors.append(f"workload {w!r} must have exactly name and why")
            continue
        names.append(w["name"])
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            errors.append(f"workload {w['name']!r}: why must be one line <= 200")

    metric_specs = (("end_to_end", 1, 16, {"name", "unit", "better", "bound"}),
                    ("per_layer", 1, 128, {"name", "unit", "better"}))
    for section, lo, hi, keys in metric_specs:
        metrics = doc.get(section)
        if not isinstance(metrics, list) or not lo <= len(metrics) <= hi:
            errors.append(f"{section} must list {lo}..{hi} metrics")
            continue
        for m in metrics:
            if not isinstance(m, dict) or set(m) != keys:
                errors.append(f"{section} metric {m!r} must have keys {sorted(keys)}")
                continue
            names.append(m["name"])
            if not valid_unit(m["unit"]):
                errors.append(f"bad unit {m['unit']!r} on {m['name']!r}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"{m['name']!r}: better must be lower or higher")
            if "bound" in keys:
                b = m["bound"]
                if (not isinstance(b, (int, float)) or isinstance(b, bool)
                        or not 0 < b <= 0.25):
                    errors.append(f"{m['name']!r}: bound must be in (0, 0.25]")

    for n in names:
        if not valid_name(n):
            errors.append(f"bad name {n!r}")
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        errors.append(f"names used more than once: {dupes}")

    setup = [m for m in doc.get("end_to_end") or []
             if isinstance(m, dict) and m.get("name") == "setup_s"]
    if len(setup) != 1 or setup[0].get("unit") != "s" or \
            setup[0].get("better") != "lower":
        errors.append("end_to_end needs setup_s in s, better lower")
    else:
        bounds = [m.get("bound", 0) for m in doc["end_to_end"]
                  if isinstance(m, dict)]
        if setup[0].get("bound") != max(bounds):
            errors.append("setup_s must carry the largest bound")
    return errors
