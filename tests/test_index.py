"""Coloring and peeling on the graph's integer index, against the string-keyed passes.

The oracles below are the string-keyed ``color_graph`` loop,
``core_decomposition`` and ``_weak_components`` that ran on
``BigramGraph.arcs`` before the index, copied verbatim. Every
construction route of a graph must give exactly their results, dict
order included.
"""

import random

from chromagraph import BigramGraph, color_graph, core_decomposition, extract_kcore, load_graph, \
    merge, save_graph
from chromagraph.coloring import STRATEGIES
from chromagraph.graph import graph_from_payload
from chromagraph.kcore import CoreDecomposition

from conftest import random_graph, shuffled_payload


# -- oracles ------------------------------------------------------------------

def string_color_labels(g: BigramGraph, strategy: str) -> dict[str, int]:
    if strategy == "degree_desc":
        order = sorted(g.nodes, key=lambda t: (-g.degree(t), t))
    else:
        order = sorted(g.nodes)
    labels: dict[str, int] = {}
    for node in order:
        used = {labels[u] for u in g.arcs(node) if u in labels}
        color = 0
        while color in used:
            color += 1
        labels[node] = color
    return labels


def string_core_decomposition(g: BigramGraph) -> CoreDecomposition:
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


def string_weak_components(nodes: frozenset[str], g: BigramGraph) -> list[set[str]]:
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


def string_kcore(g: BigramGraph, decomp: CoreDecomposition, k: int | None,
                 largest_component_only: bool) -> tuple[frozenset[str], int]:
    """The retained nodes and component count of the string-keyed ``extract_kcore``."""
    if k is None:
        k = decomp.degeneracy
    retained = frozenset(v for v, c in decomp.core_number.items() if c >= k)
    components = string_weak_components(retained, g)
    if largest_component_only and components:
        return frozenset(max(components, key=lambda comp: (len(comp), min(comp)))), 1
    return retained, len(components)


# -- routes -------------------------------------------------------------------

def core_levels(decomp: CoreDecomposition) -> list:
    """The k values to extract at: the degeneracy (None) and, if it is positive, 1."""
    return [None, 1] if decomp.degeneracy else [None]


def observe(g: BigramGraph) -> dict:
    """Every result the index feeds, in a form that keeps dict order."""
    result = {}
    for strategy in STRATEGIES:
        coloring = color_graph(g, strategy)
        result[strategy] = (list(coloring.labels.items()), coloring.num_colors)
    decomp = core_decomposition(g)
    result["core"] = (list(decomp.core_number.items()), decomp.degeneracy)
    for k in core_levels(decomp):
        for largest in (False, True):
            core = extract_kcore(g, k, decomposition=decomp, largest_component_only=largest)
            result[k, largest] = (core.retained, core.components)
    return result


def expected(g: BigramGraph) -> dict:
    """``observe`` as the string-keyed passes compute it."""
    result = {}
    for strategy in STRATEGIES:
        labels = string_color_labels(g, strategy)
        result[strategy] = (list(labels.items()), max(labels.values(), default=-1) + 1)
    decomp = string_core_decomposition(g)
    result["core"] = (list(decomp.core_number.items()), decomp.degeneracy)
    for k in core_levels(decomp):
        for largest in (False, True):
            result[k, largest] = string_kcore(g, decomp, k, largest)
    return result


def routes(g: BigramGraph, path, rng: random.Random) -> dict:
    """Makers of fresh graphs equal to ``g``, one per way a graph is made."""
    save_graph(g, path)
    edges = list(g.edges.items())
    half = len(edges) // 2

    def hashed():
        made = BigramGraph(g.nodes, g.edges, g.source_id)
        made.content_hash()
        return made

    return {
        "fresh": lambda: BigramGraph(g.nodes, g.edges, g.source_id),
        "fresh_hashed": hashed,
        "loaded": lambda: load_graph(path),
        "loaded_shuffled": lambda: graph_from_payload(shuffled_payload(g, rng)),
        "merge": lambda: merge(BigramGraph(g.nodes, dict(edges[:half]), g.source_id),
                               BigramGraph(g.nodes, dict(edges[half:]), g.source_id)),
    }


def assert_index_matches_strings(g: BigramGraph, path, rng: random.Random) -> None:
    want = expected(BigramGraph(g.nodes, g.edges, g.source_id))
    for name, make in routes(g, path, rng).items():
        made = make()
        assert made == g, name
        assert observe(made) == want, name
    # the k-core subgraph extract_kcore builds, against the same subgraph built fresh
    sub = extract_kcore(BigramGraph(g.nodes, g.edges, g.source_id), 1).graph if g.edges else g
    assert observe(sub) == expected(BigramGraph(sub.nodes, sub.edges, sub.source_id))


def test_index_matches_string_passes_on_special_graphs(tmp_path):
    rng = random.Random(7)
    special = [
        BigramGraph(),
        BigramGraph({"lonely"}),
        BigramGraph({"v"}, {("v", "v"): 3}),
        BigramGraph({"u", "v"}, {("u", "v"): 1, ("v", "u"): 2}),
        # a self-loop, a reciprocal pair in each of two components, an isolated node
        BigramGraph({"a", "b", "c", "d", "z"},
                    {("a", "a"): 1, ("a", "b"): 2, ("b", "a"): 1, ("c", "d"): 1, ("d", "c"): 4}),
    ]
    for g in special:
        assert_index_matches_strings(g, tmp_path / "g.json", rng)


def test_index_matches_string_passes_on_random_graphs(tmp_path):
    rng = random.Random(2026)
    for i in range(40):
        g = random_graph(rng, 40, source_id=f"r{i}")
        assert_index_matches_strings(g, tmp_path / "g.json", rng)


def test_index_matches_string_passes_on_sms_graph(sms_graph, tmp_path):
    assert_index_matches_strings(sms_graph, tmp_path / "sms.json", random.Random(3))


def test_no_pass_keeps_an_index_on_its_graph(sms_graph):
    # each pass builds the index it runs on and drops it: the graph keeps only its hash
    g = BigramGraph(sms_graph.nodes, sms_graph.edges, sms_graph.source_id)
    before = set(vars(g))
    color_graph(g)
    decomp = core_decomposition(g)
    for largest in (False, True):
        extract_kcore(g, 1, decomposition=decomp, largest_component_only=largest)
    assert set(vars(g)) - before <= {"_hash"}
