"""Statistics and span arithmetic for `run.py`.

Pure functions only, so `test_bench_stats.py` covers them without building
anything. `None` means "not measured / does not apply" throughout and is
never folded into a number; a measured zero stays 0.
"""

import math
import statistics

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x100000001B3
MASK64 = (1 << 64) - 1


def fnv1a64(data: bytes) -> str:
    """64-bit FNV-1a digest of `data`, as 16 hex digits."""
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return f"{h:016x}"


def median(values):
    """Median of the non-null values; None when there are none."""
    vals = [v for v in values if v is not None]
    return statistics.median(vals) if vals else None


def quartiles(values):
    """(Q1, Q3) as `statistics.quantiles(values, n=4)` gives them; a single
    value is its own quartiles; None for no values."""
    vals = [v for v in values if v is not None]
    if not vals:
        return None
    if len(vals) == 1:
        return (vals[0], vals[0])
    q = statistics.quantiles(vals, n=4)
    return (q[0], q[2])


def spread(values):
    """Interquartile distance as a share of the median; None when the
    median is 0 or nothing was measured."""
    q = quartiles(values)
    m = median(values)
    if q is None or not m:
        return None
    return (q[1] - q[0]) / m


PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0)


def tail_percentile(values, min_beyond=10):
    """The highest percentile of the ladder with at least `min_beyond`
    samples beyond it, as (percentile, nearest-rank value); None when even
    p90 has too few (the median is then reported on its own)."""
    vals = sorted(v for v in values if v is not None)
    n = len(vals)
    for p in PERCENTILE_LADDER:
        rank = math.ceil(p * n / 100.0 - 1e-9)  # nearest rank, 1-based
        if n and n - rank >= min_beyond:
            return (p, vals[rank - 1])
    return None


def ratio(num, den):
    """num / den; None when either is missing or the denominator is 0."""
    if num is None or den is None or den == 0:
        return None
    return num / den


def scaled(value, factor):
    return None if value is None else value * factor


def union_length(intervals):
    """Total length covered by possibly overlapping (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Per span: its duration minus the part of its interval that its
    direct children cover (children clipped to the parent, overlaps
    counted once). `spans` are dicts with name, start, end, parent (an
    index into `spans` or None)."""
    children = [[] for _ in spans]
    for sp in spans:
        if sp["parent"] is not None:
            children[sp["parent"]].append(sp)
    out = []
    for sp, kids in zip(spans, children):
        clipped = [(max(k["start"], sp["start"]), min(k["end"], sp["end"])) for k in kids]
        out.append((sp["end"] - sp["start"]) - union_length(clipped))
    return out


def span_table(spans):
    """name -> {"self": summed self time, "incl": summed duration, "n": count}."""
    table = {}
    for sp, own in zip(spans, self_times(spans)):
        row = table.setdefault(sp["name"], {"self": 0.0, "incl": 0.0, "n": 0})
        row["self"] += own
        row["incl"] += sp["end"] - sp["start"]
        row["n"] += 1
    return table


def contract_value(value):
    """The result line's schema takes numbers only: a metric that does not
    apply (None) is written as 0 there. The report above it keeps null."""
    return 0 if value is None else value
