"""Order statistics and metric declarations shared by the benchmark runner."""

import json
import math

MIN_BEYOND = 10  # a percentile is reported only with this many samples past it


def median(values) -> float:
    xs = sorted(values)
    if not xs:
        raise ValueError("median of no samples")
    mid = len(xs) // 2
    return xs[mid] if len(xs) % 2 else 0.5 * (xs[mid - 1] + xs[mid])


def percentile(values, p: float):
    """Nearest-rank p-th percentile, or None when fewer than MIN_BEYOND
    samples lie beyond it (p99 needs 1000 samples, p50 needs 20)."""
    xs = sorted(values)
    rank = math.ceil(p / 100.0 * len(xs))
    if rank < 1 or len(xs) - rank < MIN_BEYOND:
        return None
    return xs[rank - 1]


def declared_units(path) -> dict:
    """{trace flag: {metric name: unit}} from BENCHMARK.json."""
    doc = json.loads(path.read_text())
    return {0: {m["name"]: m["unit"] for m in doc["end_to_end"]},
            1: {m["name"]: m["unit"] for m in doc["per_layer"]}}


def with_units(values: dict, units: dict, complete: bool = True) -> dict:
    """Attach declared units.  The measured names must be the declared ones;
    an incomplete run (one that failed) may have fewer."""
    names = set(values)
    if names - set(units) or (complete and names != set(units)):
        raise RuntimeError(f"measured metrics {sorted(set(values) ^ set(units))} "
                           "disagree with BENCHMARK.json")
    return {k: {"value": float(values[k]), "unit": units[k]} for k in units if k in values}
