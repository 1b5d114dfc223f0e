import random
from collections import Counter

import pytest

from chromagraph import BigramGraph, Corpus, Document, IngestConfig, KCoreError, \
    KCoreSubgraph, build_graph, color_graph, core_decomposition, core_report, extract_kcore, \
    load_corpus, load_graph, read_stopwords, reduce_corpus, save_graph
from chromagraph.kcore import CoreDecomposition

from conftest import DATA_DIR, PIZZA_CORE_TOKENS, neighbor_sets, random_graph


# -- oracle -------------------------------------------------------------------

def fixed_point_core(g: BigramGraph, k: int) -> set[str]:
    """Delete any node with subgraph total degree < k until stable."""
    alive = set(g.nodes)
    while True:
        degree = {v: 0 for v in alive}
        for src, dst in g.edges:
            if src in alive and dst in alive:
                degree[src] += 1
                degree[dst] += 1
        drop = {v for v in alive if degree[v] < k}
        if not drop:
            return alive
        alive -= drop


# Bucket peeling that also tracks a set of removed nodes: the reference
# that core_decomposition, which relies on degrees alone, is checked against.
def removed_set_core_decomposition(g: BigramGraph) -> CoreDecomposition:
    """Compute every node's core number by bucket peeling.

    Nodes sit in buckets indexed by current degree; the scan removes
    the minimum-degree node and decrements its unremoved neighbors,
    never below the current level, so the scan pointer only moves
    forward and the whole pass is O(V + E). A node's core number is
    its degree at removal time. Core numbers are order-independent;
    the lexicographic seeding only makes the traversal deterministic.
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
    removed: set[str] = set()
    d = 0
    while d <= max_degree:
        bucket = buckets[d]
        if heads[d] >= len(bucket):
            d += 1
            continue
        v = bucket[heads[d]]
        heads[d] += 1
        if v in removed or degrees[v] != d:
            continue  # stale bucket entry
        core[v] = d
        removed.add(v)
        for u in g.arcs(v):
            if u not in removed and degrees[u] > d:
                degrees[u] -= 1
                buckets[degrees[u]].append(u)
    return CoreDecomposition(core, max(core.values(), default=0))


def test_pizza_decomposition(pizza_graph):
    decomp = core_decomposition(pizza_graph)
    assert decomp.degeneracy == 2
    core2 = {v for v, c in decomp.core_number.items() if c >= 2}
    assert core2 == PIZZA_CORE_TOKENS


def test_pizza_max_core_is_directed_cycle(pizza_graph):
    core = extract_kcore(pizza_graph)
    assert core.k == 2
    assert core.retained == PIZZA_CORE_TOKENS
    assert core.graph.node_count == 8
    assert core.graph.edge_count == 8
    assert core.components == 1
    assert core.removed == pizza_graph.nodes - PIZZA_CORE_TOKENS


def test_edgeless_graph_all_zero():
    g = BigramGraph({"a", "b"}, {})
    decomp = core_decomposition(g)
    assert decomp.degeneracy == 0
    assert set(decomp.core_number.values()) == {0}


def test_complete_directed_triangle():
    nodes = {"a", "b", "c"}
    edges = {(u, v): 1 for u in nodes for v in nodes if u != v}
    decomp = core_decomposition(BigramGraph(nodes, edges))
    # every node sees 2 in-arcs and 2 out-arcs, so peeling bottoms out at 4
    assert set(decomp.core_number.values()) == {4}
    assert decomp.degeneracy == 4


def test_self_loop_contributes_two():
    g = BigramGraph({"v"}, {("v", "v"): 1})
    assert core_decomposition(g).degeneracy == 2


def test_peeling_matches_fixed_point_on_random_graphs():
    rng = random.Random(31337)
    for _ in range(80):
        g = random_graph(rng, 12)
        decomp = core_decomposition(g)
        for k in range(1, decomp.degeneracy + 1):
            assert extract_kcore(g, k, decomposition=decomp).retained == \
                frozenset(fixed_point_core(g, k))
        assert not fixed_point_core(g, decomp.degeneracy + 1)


def test_peeling_matches_removed_set_peeling(sms_graph):
    rng = random.Random(2024)
    graphs = [sms_graph] + [random_graph(rng, 40) for _ in range(40)]
    for g in graphs:
        new, old = core_decomposition(g), removed_set_core_decomposition(g)
        # same core numbers, assigned in the same removal order
        assert list(new.core_number.items()) == list(old.core_number.items())
        assert new.degeneracy == old.degeneracy


def test_sms_graph_peeling_and_coloring_match_oracles():
    config = IngestConfig(stopwords=read_stopwords(DATA_DIR / "stopwords-en.txt"))
    g = build_graph(load_corpus(DATA_DIR / "sms-spam.csv", "csv", config))
    assert (g.node_count, g.edge_count) == (8721, 35997)
    decomp = core_decomposition(g)
    assert decomp.degeneracy == 31
    for k in (1, 15, 31):
        assert extract_kcore(g, k, decomposition=decomp).retained == \
            frozenset(fixed_point_core(g, k))

    # reference greedy: total degree counted per distinct edge end, set adjacency
    degree = Counter()
    for src, dst in g.edges:
        degree[src] += 1
        degree[dst] += 1
    adj = neighbor_sets(g)
    labels: dict[str, int] = {}
    for v in sorted(g.nodes, key=lambda t: (-degree[t], t)):
        used = {labels[u] for u in adj[v] if u in labels}
        labels[v] = min(set(range(len(used) + 1)) - used)
    coloring = color_graph(g)
    assert coloring.labels == labels
    assert coloring.num_colors == 18


def test_monotone_nesting():
    rng = random.Random(4)
    for _ in range(25):
        g = random_graph(rng, 15)
        decomp = core_decomposition(g)
        previous = None
        for k in range(1, decomp.degeneracy + 1):
            retained = extract_kcore(g, k, decomposition=decomp).retained
            if previous is not None:
                assert retained <= previous
            previous = retained


def test_core_keeps_original_weights(pizza_graph):
    core = extract_kcore(pizza_graph)
    for edge, weight in core.graph.edges.items():
        assert pizza_graph.edges[edge] == weight
    assert core.graph.weight("a", "pizza") == 2


def test_k1_is_identity_without_isolated_nodes():
    g = BigramGraph({"a", "b", "c"}, {("a", "b"): 1, ("b", "c"): 2})
    core = extract_kcore(g, 1)
    assert core.retained == g.nodes
    assert core.graph == BigramGraph(g.nodes, g.edges, g.source_id)


def test_k_above_degeneracy_reports_it(pizza_graph):
    with pytest.raises(KCoreError, match="degeneracy 2"):
        extract_kcore(pizza_graph, 3)


def test_k_below_one_rejected(pizza_graph):
    with pytest.raises(KCoreError):
        extract_kcore(pizza_graph, 0)


def test_max_on_edgeless_graph_keeps_everything():
    g = BigramGraph({"a", "b"}, {})
    core = extract_kcore(g)
    assert core.k == 0
    assert core.retained == g.nodes


def test_component_count_and_largest_only():
    edges = {("a", "b"): 1, ("b", "a"): 1,
             ("x", "y"): 1, ("y", "z"): 1, ("z", "x"): 1}
    g = BigramGraph({"a", "b", "x", "y", "z"}, edges)
    core = extract_kcore(g, 2)
    assert core.components == 2
    largest = extract_kcore(g, 2, largest_component_only=True)
    assert largest.retained == frozenset({"x", "y", "z"})
    assert largest.components == 1


@pytest.mark.parametrize("largest_component_only", [False, True])
def test_core_lists_are_the_parents_reindexed(sms_graph, tmp_path, largest_component_only):
    # a seeded core number per node makes each retained set a random subset;
    # the oracle sorts the induced edge map, the core re-indexes the parent's
    path = tmp_path / "sms.json"
    save_graph(sms_graph, path)
    rng = random.Random(23)
    makers = {"fresh": lambda: BigramGraph(sms_graph.nodes, sms_graph.edges, sms_graph.source_id),
              "loaded": lambda: load_graph(path)}
    for name, make in makers.items():
        g = make()
        for share in (0.0, 0.02, rng.random(), rng.random(), 1.0):
            decomp = CoreDecomposition(
                {v: 2 if rng.random() < share else 1 for v in sorted(g.nodes)}, 2)
            core = extract_kcore(g, 2, decomposition=decomp,
                                 largest_component_only=largest_component_only)
            retained = core.retained
            oracle = BigramGraph(retained, {e: w for e, w in g.edges.items()
                                            if e[0] in retained and e[1] in retained},
                                 g.source_id)
            assert core.graph.canonical_bytes() == oracle.canonical_bytes(), (name, share)
            assert core.graph._index() == oracle._index(), (name, share)


def test_reduce_corpus_identity(pizza_corpus, pizza_graph):
    core = extract_kcore(pizza_graph, 1)
    assert reduce_corpus(pizza_corpus, core) == pizza_corpus


def test_reduce_corpus_to_empty(pizza_corpus, pizza_graph):
    emptied = KCoreSubgraph(1, BigramGraph(), frozenset(), frozenset(pizza_graph.nodes), 0)
    reduced = reduce_corpus(pizza_corpus, emptied)
    assert len(reduced) == len(pizza_corpus)
    assert all(doc.tokens == () for doc in reduced.docs)


def test_reduce_pizza_with_max_core(pizza_corpus, pizza_graph):
    core = extract_kcore(pizza_graph)
    reduced = reduce_corpus(pizza_corpus, core)
    assert reduced.docs[2].tokens == ("a", "pizza")
    assert reduced.docs[0].tokens == ("i", "love", "eating", "pizza")


def test_reduce_preserves_order():
    corpus = Corpus((Document(("b", "x", "a", "x", "b")),), "o")
    g = BigramGraph({"a", "b", "x"}, {("a", "b"): 1, ("b", "a"): 1, ("a", "x"): 1})
    core = extract_kcore(g, 2)
    assert core.retained == frozenset({"a", "b"})
    assert reduce_corpus(corpus, core).docs[0].tokens == ("b", "a", "b")


def test_core_report_shape(pizza_graph):
    decomp = core_decomposition(pizza_graph)
    core = extract_kcore(pizza_graph, decomposition=decomp)
    report = core_report(decomp, core)
    assert report["degeneracy"] == 2
    assert report["k"] == 2
    assert report["node_count"] == 8
    assert report["edge_count"] == 8
    assert report["components"] == 1
    assert report["retained"] == sorted(PIZZA_CORE_TOKENS)
