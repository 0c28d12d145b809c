"""Summary statistics the benchmark reports.

Timings are reported as a median and a *tail*: the highest percentile of
:data:`TAIL_LADDER` that has at least :data:`MIN_BEYOND` samples beyond
it, so a tail figure never rests on a handful of outliers.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

#: Percentiles considered for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10
#: Samples per chunk of :func:`chunked_summary`, and the fewest samples
#: it cuts into chunks (five chunks of 40, each with a p75 tail).
CHUNK = 200
MIN_CHUNKED = 200


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond.

    ``n * (100 - q) / 100`` samples lie beyond percentile ``q``; ``None``
    when even the lowest rung has fewer (fewer than 40 samples).
    """
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            return q
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, tail (per :func:`tail_percentile`), its percentile and count.

    With too few samples for any rung the tail falls back to the
    maximum and ``tail_q`` reads 100.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise ValueError("no samples to summarize")
    q = tail_percentile(arr.size)
    tail = float(np.percentile(arr, q)) if q is not None else float(arr.max())
    return {
        "p50": float(np.percentile(arr, 50.0)),
        "tail": tail,
        "tail_q": q if q is not None else 100.0,
        "n": int(arr.size),
    }


def chunked_summary(values: Sequence[float]) -> Dict[str, float]:
    """:func:`summarize` per chunk of consecutive samples, then the mean
    over chunks.

    Chunks hold :data:`CHUNK` samples, or a fifth of the run when it has
    fewer than five chunks' worth; a run of fewer than
    :data:`MIN_CHUNKED` samples is summarized whole.  On a shared host
    the machine runs slower or faster for seconds at a time: a p50 or
    tail over a whole run snaps to whichever spell dominated it, while
    the mean over chunks weighs the spells by their share of the run and
    repeats.  ``tail_q`` and ``n`` describe one chunk.
    """
    values = np.asarray(values, dtype=np.float64)
    if len(values) < MIN_CHUNKED:
        return dict(summarize(values), chunks=1)
    size = min(CHUNK, len(values) // 5)
    parts = [summarize(values[k:k + size])
             for k in range(0, len(values) - size + 1, size)]
    return {
        "p50": float(np.mean([p["p50"] for p in parts])),
        "tail": float(np.mean([p["tail"] for p in parts])),
        "tail_q": parts[0]["tail_q"],
        "n": size,
        "chunks": len(parts),
    }
