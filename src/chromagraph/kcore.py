"""K-core decomposition and vocabulary reduction.

Degree is the graph's one total-degree convention, ``BigramGraph.degree``.
Peeling runs on the graph's integer index, built once per pass, where a
node's degree is the length of its arcs, the same count. Extraction
induces the core first and counts its weak components on the core's own
index, which is no larger than the core. The
k-core is the maximal subgraph in which every node keeps degree >= k;
the decomposition assigns each node the largest k whose core still
contains it. Peeling the whole graph once gives every core number, so
extraction for any k is a filter.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._files import gc_paused
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


@gc_paused
def core_decomposition(g: BigramGraph) -> CoreDecomposition:
    """Compute every node's core number by bucket peeling.

    Nodes sit in buckets indexed by current degree; the scan removes
    the minimum-degree node and decrements its neighbors above the
    current level, so the scan only moves forward and the whole pass is
    O(V + E) (Batagelj & Zaveršnik, 2003). A node's core number is its
    degree at removal time, which it then keeps; degrees only fall, so a
    node has at most one entry per bucket, and the degree tests skip
    removed nodes. Core numbers are order-independent; seeding the
    buckets in token order only makes the traversal deterministic, and
    ``core_number`` lists the nodes in removal order.
    """
    tokens, arcs = g._index()
    if not tokens:
        return CoreDecomposition({}, 0)
    degrees = list(map(len, arcs))
    buckets: list[list[int]] = [[] for _ in range(max(degrees) + 1)]
    for v, d in enumerate(degrees):
        buckets[d].append(v)
    removed: list[int] = []
    for d, bucket in enumerate(buckets):
        # a decrement appends to this bucket or a later one, never an
        # earlier one, and iterating a list visits what is appended to it
        for v in bucket:
            if degrees[v] != d:
                continue  # stale bucket entry
            removed.append(v)
            for u in arcs[v]:
                if degrees[u] > d:
                    degrees[u] -= 1
                    buckets[degrees[u]].append(u)
    # a removed node's degree is its core number from then on
    return CoreDecomposition({tokens[v]: degrees[v] for v in removed}, max(degrees))


def _weak_components(g: BigramGraph) -> list[list[str]]:
    """Weakly connected components of ``g``, each led by its smallest token,
    in the order of those tokens."""
    tokens, arcs = g._index()
    unseen = [True] * len(tokens)
    components = []
    for start, fresh in enumerate(unseen):
        if not fresh:
            continue
        unseen[start] = False
        comp = [start]
        for v in comp:
            for u in arcs[v]:
                if unseen[u]:
                    unseen[u] = False
                    comp.append(u)
        components.append([tokens[v] for v in comp])
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
    core = g._induced(retained)
    components = _weak_components(core)
    n_components = len(components)
    if largest_component_only and n_components > 1:
        keep = max(components, key=lambda comp: (len(comp), comp[0]))
        retained = frozenset(keep)
        core = core._induced(retained)
        n_components = 1
    return KCoreSubgraph(k, core, retained, g.nodes - retained, n_components)


@gc_paused
def reduce_corpus(corpus: Corpus, core: KCoreSubgraph) -> Corpus:
    """Drop every token outside the core's retained vocabulary.

    Document count and token order are preserved; documents may become
    empty.
    """
    keep = core.retained.__contains__
    docs = tuple(Document(tuple(filter(keep, doc.tokens))) for doc in corpus.docs)
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
