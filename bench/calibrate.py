"""A fixed reference job that measures how fast the machine runs right now.

The host's speed drifts by tens of percent over minutes, while the
work of an operation does not. The benchmark runs ``reference()``
between set-ups and operations and reports times at reference speed
(see ``run.py``). The job depends only on the standard library and on
nothing in ``src/``, so a change to the program leaves it as it is. It
does graph-side work on a bigram graph of about the SMS graph's size:
regex tokenizing, dicts of dicts, sets, sorting, greedy coloring, heap
peeling, canonical JSON and hashing.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import random
import re
import statistics
import time

TOKEN = re.compile(r"[a-z0-9]+")


def _texts(docs: int = 3000, vocab: int = 10000, length: int = 12) -> list[str]:
    rng = random.Random(20210705)
    words = [f"w{i}x" for i in range(vocab)]
    weights = [1 / (rank + 1) for rank in range(vocab)]
    return [" ".join(rng.choices(words, weights, k=length)).upper() for _ in range(docs)]


TEXTS = _texts()


def reference() -> str:
    """One fixed unit of graph work; returns a digest so nothing is optimised away."""
    succ: dict[str, dict[str, int]] = {}
    for text in TEXTS:
        tokens = TOKEN.findall(text.lower())
        for a, b in zip(tokens, tokens[1:]):
            row = succ.setdefault(a, {})
            row[b] = row.get(b, 0) + 1
    adj: dict[str, set[str]] = {}
    for a, row in succ.items():
        for b in row:
            if a != b:
                adj.setdefault(a, set()).add(b)
                adj.setdefault(b, set()).add(a)
    color: dict[str, int] = {}
    for v in sorted(adj, key=lambda v: (-len(adj[v]), v)):
        used = {color[u] for u in adj[v] if u in color}
        color[v] = next(c for c in range(len(used) + 1) if c not in used)
    degree = {v: len(ns) for v, ns in adj.items()}
    heap = [(d, v) for v, d in degree.items()]
    heapq.heapify(heap)
    core, k = {}, 0
    while heap:
        d, v = heapq.heappop(heap)
        if v in core or d != degree[v]:
            continue
        k = max(k, d)
        core[v] = k
        for u in adj[v]:
            if u not in core:
                degree[u] -= 1
                heapq.heappush(heap, (degree[u], u))
    payload = json.dumps({"succ": succ, "color": color, "core": core}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# About the median seconds of reference() on a 2-core x86-64 host, Python 3.11.
NOMINAL_S = 0.2


def time_reference() -> float:
    """Seconds of one reference() run, with the cyclic GC paused.

    The job makes no reference cycles; with the collector paused, a
    collection that the workload's live objects would make slow cannot
    land in the job's time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    time_reference()
    samples = [time_reference() for _ in range(20)]
    print(f"reference: median {statistics.median(samples):.4f} s, min {min(samples):.4f} s")
