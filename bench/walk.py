"""Workload ``walk_short``: sentence generation with a short hop bound.

Set-up loads ``data/sms-spam.csv`` with stopwords removed, builds and colors
its graph and constructs one PathFinder per protocol. One operation is
one ``generate`` call (CLI defaults, except ``max_hops`` MAX_HOPS), in a
fixed order that cycles through the four protocols. Sentences come in
batches of BATCH that share one PathFinder per protocol; the operation
that starts a batch builds new finders. Finder caches, and with them the
heap the cyclic GC walks, grow with every sentence; batches keep a
sentence's cost from depending on how many sentences the run reached. Each protocol's
walker seeds are a seeded permutation of range(UNIVERSE), whose
sentences are pinned; beyond UNIVERSE sentences per protocol a run
would only be checked by generate's own validation, and UNIVERSE is
several times what one run reaches.

With a hop bound of 3 about half of the finds are unreachable and
about a tenth of the segments jump, so the reachability pre-check,
the retry loop and the jump path do real work here.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from functools import lru_cache

from chromagraph import (IngestConfig, PathFinder, WalkerConfig, build_graph, color_graph,
                         generate, load_corpus, read_stopwords)
from chromagraph.walker import PROTOCOLS

MAX_HOPS = 3
SENTENCE_LEN = 8
UNIVERSE = 300
ROUND = len(PROTOCOLS)  # one sentence per protocol
BATCH = 5 * ROUND
SETUP_LAYERS = ("corpus.load", "graph.build", "graph.hash", "coloring.color",
                "walker.finder_init")


def sentence_digest(sentence) -> str:
    return hashlib.sha256(json.dumps(sentence.tokens).encode("utf-8")).hexdigest()[:16]


@lru_cache(maxsize=len(PROTOCOLS))
def _order(seed: int, protocol: str) -> list[int]:
    order = list(range(UNIVERSE))
    random.Random(f"{seed}:{protocol}").shuffle(order)
    return order


def schedule(seed: int, i: int) -> tuple[str, int]:
    """(protocol, walker seed) of operation ``i`` for ``seed``."""
    protocol = PROTOCOLS[i % len(PROTOCOLS)]
    k = i // len(PROTOCOLS)
    return protocol, _order(seed, protocol)[k] if k < UNIVERSE else k


def setup(root, work, seed, tracer):
    config = IngestConfig(stopwords=read_stopwords(root / "data" / "stopwords-en.txt"))
    with tracer.span("corpus.load"):
        corpus = load_corpus(root / "data" / "sms-spam.csv", "csv", config)
    with tracer.span("graph.build"):
        graph = build_graph(corpus)
    with tracer.span("graph.hash"):
        graph.content_hash()
    with tracer.span("coloring.color"):
        coloring = color_graph(graph)
    return {"seed": seed, "graph": graph, "coloring": coloring,
            "finders": _finders(graph, tracer), "corpus": corpus}


def _finders(graph, tracer) -> dict:
    finders = {}
    for protocol in PROTOCOLS:
        with tracer.span("walker.finder_init"):
            finders[protocol] = PathFinder(graph, protocol, MAX_HOPS)
    if tracer.enabled:
        for finder in finders.values():
            finder.find = _traced_find(tracer, finder.find)
    return finders


def _traced_find(tracer, find):
    """``find`` as one span per call, flagged unreachable / repeated (pair already asked)."""
    seen = set()

    def traced(source, target):
        with tracer.span("walker.find") as record:
            path = find(source, target)
        record["unreachable"] = path is None
        record["repeat"] = (source, target) in seen
        seen.add((source, target))
        return path
    return traced


def op(state, i, tracer):
    if i and i % BATCH == 0:
        state["finders"] = None  # drop the old caches before building new ones
        state["finders"] = _finders(state["graph"], tracer)
    protocol, walker_seed = schedule(state["seed"], i)
    config = WalkerConfig(SENTENCE_LEN, protocol, seed=walker_seed, max_hops=MAX_HOPS)
    with tracer.span("walker.generate"):
        sentence = generate(state["graph"], state["coloring"], config,
                            finder=state["finders"][protocol])
    return {"items": 1, "outputs": {"walker_seed": walker_seed, "sentence": sentence},
            "info": {"segments": len(sentence.segments),
                     "jumps": sum(seg.jump for seg in sentence.segments)}}


def digests(state, outcome):
    out = outcome["outputs"]
    pinned = out["walker_seed"] < UNIVERSE
    return {"graph_hash": state["graph"].content_hash(),
            "sentence": sentence_digest(out["sentence"]) if pinned else None}


def expected(state, i, pins):
    protocol, walker_seed = schedule(state["seed"], i)
    sentences = pins.get("sentences", {}).get(protocol, [])
    return {"graph_hash": pins.get("graph_hash"),
            "sentence": sentences[walker_seed] if walker_seed < len(sentences) else None}


def layer_metrics(state, tracer, outcomes, ops, setup_times, scale):
    setups = [f"setup{i}" for i in range(len(setup_times))]
    values = {f"{n}_s": t for n, t in tracer.median_self(setups, SETUP_LAYERS, scale["setup"]).items()}
    walker = tracer.median_self(ops, ["walker.find", "walker.generate"], scale["op"])
    values["walker.find_s"] = walker["walker.find"]
    values["walker.self_s"] = walker["walker.generate"]
    for k, protocol in enumerate(PROTOCOLS):
        mine = ops[k::len(PROTOCOLS)]
        if mine:
            times = tracer.median_self(mine, ["walker.find"], scale["op"])
            values[f"walker.{protocol}.find_s"] = times["walker.find"]
    finds = [s for s in tracer.spans if s["name"] == "walker.find"]
    ms = [(f["end"] - f["start"]) * 1000 * scale["op"] for f in finds]  # every sentence makes >= 7 finds
    segments = sum(o["info"]["segments"] for o in outcomes if o is not None)
    jumps = sum(o["info"]["jumps"] for o in outcomes if o is not None)
    graph, corpus = state["graph"], state["corpus"]
    values.update({
        "walker.find_ms_p50": statistics.median(ms),
        "walker.find_ms_p90": statistics.quantiles(ms, n=10)[8],
        "walker.finds": len(finds),
        "walker.unreachable_ratio": sum(f["unreachable"] for f in finds) / len(finds),
        "walker.retries": len(finds) - segments,
        "walker.jump_ratio": jumps / segments,
        "walker.repeat_ratio": sum(f["repeat"] for f in finds) / len(finds),
        "corpus.docs": len(corpus),
        "corpus.tokens": corpus.token_count(),
        "graph.nodes": graph.node_count,
        "graph.edges": graph.edge_count,
        "coloring.colors": state["coloring"].num_colors,
    })
    return values


def pin(root, work):
    """Graph hash and the digest of every sentence in the universe."""
    from tracer import NullTracer
    state = setup(root, work, 0, NullTracer())
    sentences = {}
    for protocol in PROTOCOLS:
        finder = state["finders"][protocol]
        configs = (WalkerConfig(SENTENCE_LEN, protocol, seed=w, max_hops=MAX_HOPS)
                   for w in range(UNIVERSE))
        sentences[protocol] = [
            sentence_digest(generate(state["graph"], state["coloring"], config, finder=finder))
            for config in configs]
    return {"graph_hash": state["graph"].content_hash(), "sentences": sentences}
