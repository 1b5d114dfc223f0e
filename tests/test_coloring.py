import json
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chromagraph import BigramGraph, ColoringMismatchError, Corpus, Document, \
    check_properness, chromatic_similarity, color_graph, embed_text, load_coloring, \
    project_coloring, save_coloring, similarity_matrix, tag_distribution_by_color
from chromagraph import ImproperColoringError, SchemaError
from chromagraph.coloring import Coloring

from conftest import json_values, neighbor_sets, random_graph


# -- oracle -------------------------------------------------------------------

def exact_chromatic_number(g: BigramGraph) -> int:
    """Exhaustive search for the smallest proper color count (self-loops exempt)."""
    nodes = sorted(g.nodes)
    adj = neighbor_sets(g)
    if not nodes:
        return 0

    def colorable(k: int) -> bool:
        colors: dict[str, int] = {}

        def assign(i: int) -> bool:
            if i == len(nodes):
                return True
            v = nodes[i]
            used = {colors[u] for u in adj[v] if u in colors}
            top = min(k, (max(colors.values(), default=-1) + 2))
            for c in range(top):
                if c not in used:
                    colors[v] = c
                    if assign(i + 1):
                        return True
                    del colors[v]
            return False

        return assign(0)

    for k in range(1, len(nodes) + 1):
        if colorable(k):
            return k
    raise AssertionError("unreachable")


def is_proper(g, labels) -> bool:
    return all(labels[s] != labels[d] for s, d in g.edges if s != d)


# -- coloring -----------------------------------------------------------------

def test_pizza_coloring_proper_and_near_optimal(pizza_graph):
    coloring = color_graph(pizza_graph)
    assert is_proper(pizza_graph, coloring.labels)
    exact = exact_chromatic_number(pizza_graph)
    assert exact == 2
    assert exact <= coloring.num_colors <= exact + 3


def test_edgeless_graph_single_color():
    g = BigramGraph({"a", "b", "c"}, {})
    coloring = color_graph(g)
    assert set(coloring.labels.values()) == {0}
    assert coloring.num_colors == 1


def test_two_cycle_two_colors():
    g = BigramGraph({"a", "b"}, {("a", "b"): 1, ("b", "a"): 1})
    coloring = color_graph(g)
    assert coloring.labels["a"] != coloring.labels["b"]
    assert coloring.num_colors == 2


def test_empty_graph_empty_coloring():
    coloring = color_graph(BigramGraph())
    assert coloring.labels == {} and coloring.num_colors == 0


def test_self_loop_does_not_break_coloring():
    g = BigramGraph({"v", "u"}, {("v", "v"): 2, ("v", "u"): 1})
    coloring = color_graph(g)
    assert coloring.labels["v"] != coloring.labels["u"]


def test_coloring_deterministic(pizza_graph):
    a = color_graph(pizza_graph)
    b = color_graph(pizza_graph)
    assert a == b


def test_coloring_round_trip(pizza_graph, tmp_path):
    coloring = color_graph(pizza_graph)
    path = tmp_path / "c.json"
    save_coloring(coloring, path)
    assert load_coloring(path) == coloring
    save_coloring(load_coloring(path), tmp_path / "c2.json")
    assert (tmp_path / "c.json").read_bytes() == (tmp_path / "c2.json").read_bytes()


def test_load_coloring_rejects_gappy_labels(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"version":1,"algorithm_id":"x","graph_hash":"h",'
                    '"num_colors":3,"labels":{"a":0,"b":2}}')
    with pytest.raises(SchemaError, match="no gaps"):
        load_coloring(path)


coloring_like = st.fixed_dictionaries({
    "version": st.just(1) | json_values,
    "algorithm_id": st.just("greedy-degree_desc-v1") | json_values,
    "graph_hash": st.just("h") | json_values,
    "num_colors": st.integers(-1, 3) | json_values,
    "labels": st.dictionaries(st.sampled_from("abc"), st.integers(-1, 3)) | json_values,
})


@given(data=(json_values | coloring_like).map(lambda v: json.dumps(v).encode()) | st.binary())
@example(data=b"[" * 100_000)
@example(data=b"1" * 5_000)
def test_load_coloring_raises_only_schema_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("coloring") / "c.json"
    path.write_bytes(data)
    try:
        coloring = load_coloring(path)
    except SchemaError:
        return
    save_coloring(coloring, path)
    assert load_coloring(path) == coloring


def test_strategies_differ_but_both_proper(pizza_graph):
    for strategy in ("degree_desc", "lexicographic"):
        coloring = color_graph(pizza_graph, strategy)
        assert is_proper(pizza_graph, coloring.labels)
        assert coloring.algorithm_id == f"greedy-{strategy}-v1"


def test_unknown_strategy(pizza_graph):
    with pytest.raises(ValueError, match="unknown coloring strategy"):
        color_graph(pizza_graph, "rainbow")


def test_properness_on_random_graphs():
    rng = random.Random(20240915)
    for _ in range(60):
        g = random_graph(rng, 60)
        coloring = color_graph(g)
        check_properness(g, coloring.labels)
        exact_used = set(coloring.labels.values())
        assert exact_used == set(range(coloring.num_colors))


def test_greedy_bounded_by_exact_on_small_graphs():
    rng = random.Random(99)
    for _ in range(40):
        g = random_graph(rng, 8)
        greedy = color_graph(g).num_colors
        exact = exact_chromatic_number(g)
        assert exact <= greedy <= exact + 3


def test_check_properness_detects_violation():
    g = BigramGraph({"a", "b"}, {("a", "b"): 1})
    with pytest.raises(ImproperColoringError):
        check_properness(g, {"a": 0, "b": 0})
    with pytest.raises(ImproperColoringError, match="no color"):
        check_properness(g, {"a": 0})


# -- similarity ---------------------------------------------------------------

def test_similarity_identical_graphs(pizza_graph):
    coloring = color_graph(pizza_graph)
    result = chromatic_similarity(pizza_graph, coloring, pizza_graph, coloring)
    assert result.shared == result.agreeing == 16
    assert result.score == 1.0


def test_similarity_disjoint_is_zero_without_division():
    g1 = BigramGraph({"a", "b"}, {("a", "b"): 1}, "g1")
    g2 = BigramGraph({"x", "y"}, {("x", "y"): 1}, "g2")
    result = chromatic_similarity(g1, color_graph(g1), g2, color_graph(g2))
    assert result == type(result)(0, 0, 0.0)


def test_similarity_two_thirds_hand_built():
    # lexicographic order makes the labels predictable by hand:
    # g1: a=0, b=1 (next to a), c=0 (next to b), z=0 (isolated)
    # g2: a=0, b=1, c=1 (both next to a), w=0 (isolated)
    g1 = BigramGraph({"a", "b", "c", "z"}, {("a", "b"): 1, ("b", "c"): 1}, "g1")
    g2 = BigramGraph({"a", "b", "c", "w"}, {("a", "b"): 1, ("a", "c"): 1}, "g2")
    c1 = color_graph(g1, "lexicographic")
    c2 = color_graph(g2, "lexicographic")
    assert c1.labels == {"a": 0, "b": 1, "c": 0, "z": 0}
    assert c2.labels == {"a": 0, "b": 1, "c": 1, "w": 0}
    result = chromatic_similarity(g1, c1, g2, c2)
    assert (result.shared, result.agreeing) == (3, 2)
    assert result.score == pytest.approx(2 / 3)
    # independent recomputation straight from the label maps
    common = g1.nodes & g2.nodes
    assert result.shared == len(common)
    assert result.agreeing == sum(c1.labels[t] == c2.labels[t] for t in common)


def test_similarity_rejects_foreign_coloring(pizza_graph):
    other = BigramGraph({"a", "b"}, {("a", "b"): 1}, "other")
    with pytest.raises(ColoringMismatchError, match="different graph"):
        chromatic_similarity(pizza_graph, color_graph(other), pizza_graph,
                             color_graph(pizza_graph))


@pytest.mark.parametrize("edit", [
    lambda labels: labels.__setitem__("zzz", labels.pop("pizza")),
    lambda labels: labels.pop("pizza"),
    lambda labels: labels.__setitem__("zzz", 0),
], ids=["renamed", "missing", "extra"])
def test_similarity_rejects_labels_off_the_graph_nodes(pizza_graph, edit):
    good = color_graph(pizza_graph)
    labels = dict(good.labels)
    edit(labels)
    bad = Coloring(labels, good.num_colors, good.algorithm_id, good.graph_hash)
    assert chromatic_similarity(pizza_graph, good, pizza_graph, good).score == 1.0
    for pair in ((good, bad), (bad, good)):
        with pytest.raises(ColoringMismatchError, match="labels do not match the graph's nodes"):
            chromatic_similarity(pizza_graph, pair[0], pizza_graph, pair[1])


def test_similarity_rejects_mismatched_algorithms(pizza_graph):
    c1 = color_graph(pizza_graph, "degree_desc")
    c2 = color_graph(pizza_graph, "lexicographic")
    with pytest.raises(ColoringMismatchError, match="not comparable"):
        chromatic_similarity(pizza_graph, c1, pizza_graph, c2)


def test_similarity_symmetric_random_pairs():
    rng = random.Random(5)
    for _ in range(20):
        g1 = random_graph(rng, 20, source_id="g1")
        g2 = random_graph(rng, 20, source_id="g2")
        c1, c2 = color_graph(g1), color_graph(g2)
        ab = chromatic_similarity(g1, c1, g2, c2)
        ba = chromatic_similarity(g2, c2, g1, c1)
        assert ab.score == ba.score
        assert 0.0 <= ab.score <= 1.0


def test_similarity_matrix_single():
    g = BigramGraph({"a", "b"}, {("a", "b"): 1}, "g")
    assert similarity_matrix([(g, color_graph(g))]) == [[1.0]]


def test_similarity_matrix_disjoint_pair():
    g1 = BigramGraph({"a"}, {}, "g1")
    g2 = BigramGraph({"b"}, {}, "g2")
    matrix = similarity_matrix([(g1, color_graph(g1)), (g2, color_graph(g2))])
    assert matrix == [[1.0, 0.0], [0.0, 1.0]]


# -- embedding and projection ---------------------------------------------------

def test_embed_empty_document(pizza_graph):
    coloring = color_graph(pizza_graph)
    assert embed_text(Document(()), coloring).values == ()


def test_embed_unknown_tokens(pizza_graph):
    coloring = color_graph(pizza_graph)
    vec = embed_text(Document(("quantum", "flux")), coloring)
    assert vec.values == (-1, -1)


def test_embed_reads_labels(pizza_graph):
    coloring = color_graph(pizza_graph)
    doc = Document(("i", "love", "pizza"))
    vec = embed_text(doc, coloring)
    assert vec.values == tuple(coloring.labels[t] for t in doc.tokens)
    assert len(vec) == len(doc)


def test_embedding_not_injective(pizza_graph):
    coloring = color_graph(pizza_graph)
    by_color: dict[int, list[str]] = {}
    for token, color in sorted(coloring.labels.items()):
        by_color.setdefault(color, []).append(token)
    twins = next(words for words in by_color.values() if len(words) >= 2)
    d1 = Document(("pizza", twins[0]))
    d2 = Document(("pizza", twins[1]))
    assert d1 != d2
    assert embed_text(d1, coloring) == embed_text(d2, coloring)


def test_projection_on_own_corpus_full_coverage(pizza_corpus, pizza_graph):
    coloring = color_graph(pizza_graph)
    result = project_coloring(coloring, pizza_corpus)
    assert result.coverage == 1.0
    assert len(result.vectors) == len(pizza_corpus.docs)


def test_projection_disjoint_corpus(pizza_graph):
    coloring = color_graph(pizza_graph)
    foreign = Corpus((Document(("zig", "zag")),), "f")
    result = project_coloring(coloring, foreign)
    assert result.coverage == 0.0
    assert result.vectors[0].values == (-1, -1)


def test_projection_half_coverage(pizza_graph):
    coloring = color_graph(pizza_graph)
    foreign = Corpus((Document(("pizza", "zig")), Document(("love", "zag"))), "f")
    result = project_coloring(coloring, foreign)
    assert result.coverage == 0.5


def test_projection_empty_corpus(pizza_graph):
    coloring = color_graph(pizza_graph)
    assert project_coloring(coloring, Corpus((), "e")).coverage == 0.0


# -- tag distributions ----------------------------------------------------------

def test_tagdist_single_tag(pizza_graph):
    coloring = color_graph(pizza_graph)
    annotations = {t: "WORD" for t in pizza_graph.nodes}
    dist = tag_distribution_by_color(coloring, annotations)
    assert set(dist) == set(range(coloring.num_colors))
    assert all(hist == {"WORD": 1.0} for hist in dist.values())


def test_tagdist_empty_annotations(pizza_graph):
    coloring = color_graph(pizza_graph)
    dist = tag_distribution_by_color(coloring, {})
    assert all(hist == {"UNK": 1.0} for hist in dist.values())


def test_tagdist_hand_built_fractions():
    # 6 nodes, 2 colors by construction: a,b,c one side of a star, hub d
    g = BigramGraph({"a", "b", "c", "d", "e", "f"},
                    {("d", "a"): 1, ("d", "b"): 1, ("d", "c"): 1,
                     ("d", "e"): 1, ("d", "f"): 1}, "star")
    coloring = color_graph(g)
    assert coloring.num_colors == 2
    assert coloring.labels["d"] == 0
    annotations = {"a": "N", "b": "N", "c": "V", "e": "V", "f": "V"}
    dist = tag_distribution_by_color(coloring, annotations)
    assert dist[0] == {"UNK": 1.0}
    assert dist[1] == {"N": 2 / 5, "V": 3 / 5}
    for hist in dist.values():
        assert sum(hist.values()) == pytest.approx(1.0, abs=1e-9)
