"""K-core decomposition and vocabulary reduction.

Degree is ``BigramGraph.degree``, the graph's one total-degree
convention. The k-core is the maximal subgraph in which every node
keeps degree >= k; the decomposition assigns each node the largest k
whose core still contains it. Peeling the whole graph once gives every
core number, so extraction for any k is a filter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corpus import Corpus, Document
from .graph import BigramGraph


class KCoreError(ValueError):
    """Requested k is outside the graph's valid core range."""


@dataclass(frozen=True)
class CoreDecomposition:
    """Core number per node and the degeneracy (largest non-empty k)."""

    core_number: dict[str, int]
    degeneracy: int


@dataclass(frozen=True)
class KCoreSubgraph:
    """Induced subgraph of all nodes with core number >= k.

    Edge weights are the original graph's weights restricted to the
    retained nodes; induction never rescales. ``components`` counts
    weakly connected components of the core.
    """

    k: int
    graph: BigramGraph
    retained: frozenset[str]
    removed: frozenset[str]
    components: int


def core_decomposition(g: BigramGraph) -> CoreDecomposition:
    """Compute every node's core number by bucket peeling.

    Nodes sit in buckets indexed by current degree; the scan removes
    the minimum-degree node and decrements its neighbors above the
    current level, so the scan pointer only moves forward and the whole
    pass is O(V + E). A node's core number is its degree at removal
    time, which it then keeps; degrees only fall, so a node has at most
    one entry per bucket, and the degree tests skip removed nodes.
    Core numbers are order-independent; the lexicographic seeding only
    makes the traversal deterministic.
    """
    degrees = {v: g.degree(v) for v in g.nodes}
    if not degrees:
        return CoreDecomposition({}, 0)
    max_degree = max(degrees.values())
    buckets: list[list[str]] = [[] for _ in range(max_degree + 1)]
    for v in sorted(degrees):
        buckets[degrees[v]].append(v)
    heads = [0] * (max_degree + 1)
    core: dict[str, int] = {}
    d = 0
    while d <= max_degree:
        bucket = buckets[d]
        if heads[d] >= len(bucket):
            d += 1
            continue
        v = bucket[heads[d]]
        heads[d] += 1
        if degrees[v] != d:
            continue  # stale bucket entry
        core[v] = d
        for u in g.arcs(v):
            if degrees[u] > d:
                degrees[u] -= 1
                buckets[degrees[u]].append(u)
    return CoreDecomposition(core, max(core.values(), default=0))


def _weak_components(nodes: frozenset[str], g: BigramGraph) -> list[set[str]]:
    seen: set[str] = set()
    components = []
    for start in sorted(nodes):
        if start in seen:
            continue
        stack = [start]
        comp = {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for u in g.arcs(v):
                if u in nodes and u not in seen:
                    seen.add(u)
                    comp.add(u)
                    stack.append(u)
        components.append(comp)
    return components


def extract_kcore(g: BigramGraph, k: int | None = None, *,
                  decomposition: CoreDecomposition | None = None,
                  largest_component_only: bool = False) -> KCoreSubgraph:
    """Induced subgraph over nodes with core number >= k.

    ``k=None`` selects the maximal k (the degeneracy). The core may be
    disconnected; the component count is reported, and
    ``largest_component_only`` keeps just the largest weak component
    (ties broken by smallest member token).
    """
    decomp = decomposition or core_decomposition(g)
    if k is None:
        k = decomp.degeneracy
    elif k < 1:
        raise KCoreError(f"k must be >= 1, got {k}")
    elif k > decomp.degeneracy:
        raise KCoreError(f"k={k} exceeds the graph degeneracy {decomp.degeneracy}")
    retained = frozenset(v for v, c in decomp.core_number.items() if c >= k)
    components = _weak_components(retained, g)
    if largest_component_only and components:
        keep = max(components, key=lambda comp: (len(comp), min(comp)))
        retained = frozenset(keep)
        n_components = 1
    else:
        n_components = len(components)
    edges = {(s, d): w for (s, d), w in g.edges.items() if s in retained and d in retained}
    return KCoreSubgraph(k, BigramGraph._trusted(retained, edges, g.source_id), retained,
                         frozenset(g.nodes - retained), n_components)


def reduce_corpus(corpus: Corpus, core: KCoreSubgraph) -> Corpus:
    """Drop every token outside the core's retained vocabulary.

    Document count and token order are preserved; documents may become
    empty.
    """
    docs = tuple(Document(tuple(t for t in doc.tokens if t in core.retained))
                 for doc in corpus.docs)
    return Corpus(docs, corpus.source_id)


def core_report(decomp: CoreDecomposition, core: KCoreSubgraph) -> dict:
    """Report payload used by the CLI core artifact."""
    return {
        "degeneracy": decomp.degeneracy,
        "k": core.k,
        "retained": sorted(core.retained),
        "components": core.components,
        "node_count": core.graph.node_count,
        "edge_count": core.graph.edge_count,
    }
