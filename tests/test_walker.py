import math
import random
import sys
import time
from heapq import heappop, heappush
from itertools import pairwise

import pytest

from chromagraph import BigramGraph, ColoringMismatchError, PathFinder, WalkerConfig, \
    WalkerError, color_graph, find_path, generate, path_density, sample_color_plan
from chromagraph.walker import PROTOCOLS

from conftest import random_graph, traced


# -- oracle -------------------------------------------------------------------

def all_simple_paths(g, src, dst, max_hops):
    if src == dst:
        return [(src,)]
    found = []

    def walk(path):
        node = path[-1]
        if node == dst:
            found.append(tuple(path))
            return
        if len(path) - 1 == max_hops:
            return
        for nxt in g.successors(node):
            if nxt not in path:
                walk(path + [nxt])

    walk([src])
    return found


def protocol_cost(g, path, protocol):
    total_degree = {v: len(g.successors(v)) + len(g.predecessors(v)) for v in g.nodes}
    w_max = max(g.edges.values(), default=0)
    d_max = max(total_degree.values(), default=0)
    total = 0
    for u, v in pairwise(path):
        if protocol == "min_weight":
            total += g.edges[(u, v)]
        elif protocol == "max_weight":
            total += 1 + w_max - g.edges[(u, v)]
        elif protocol == "min_density":
            total += total_degree[v]
        else:
            total += 1 + d_max - total_degree[v]
    return total


class UnprunedFinder(PathFinder):
    """The search before target-bounded pruning: a forward hop-bounded
    reachability pre-check, then uniform-cost search over (node, hops)
    states. ``_reachable`` and ``_search`` are kept verbatim."""

    def __init__(self, g, protocol, max_hops):
        super().__init__(g, protocol, max_hops)
        self._reach = {}

    def find(self, source, target):
        return self._search(source, target) if target in self._reachable(source) else None

    def _reachable(self, source: str) -> frozenset[str]:
        cached = self._reach.get(source)
        if cached is not None:
            return cached
        seen = {source}
        frontier = [source]
        for _ in range(self.max_hops):
            if not frontier:
                break
            nxt = []
            for v in frontier:
                for u in self.graph.successors(v):
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        result = frozenset(seen)
        self._reach[source] = result
        return result

    def _search(self, source, target):
        cost_of = self._cost
        successors = self.graph.successors
        max_hops = self.max_hops
        heap = [(0, (source,))]
        settled: set[tuple[str, int]] = set()
        while heap:
            cost, path = heappop(heap)
            node = path[-1]
            if node == target:
                return path
            hops = len(path) - 1
            state = (node, hops)
            if state in settled or hops == max_hops:
                continue
            settled.add(state)
            for nxt in successors(node):
                heappush(heap, (cost + cost_of[(node, nxt)], path + (nxt,)))
        return None


# -- color plans ----------------------------------------------------------------

def test_plan_single_color():
    g = BigramGraph({"a"}, {})
    coloring = color_graph(g)
    config = WalkerConfig(sentence_len=50, seed=3)
    plan = sample_color_plan(coloring, config, random.Random(config.seed))
    assert plan == [0] * 50


def test_plan_deterministic(pizza_graph):
    coloring = color_graph(pizza_graph)
    config = WalkerConfig(sentence_len=30, seed=11)
    a = sample_color_plan(coloring, config, random.Random(config.seed))
    b = sample_color_plan(coloring, config, random.Random(config.seed))
    assert a == b
    assert all(0 <= x < coloring.num_colors for x in a)


def test_plan_rejects_zero_colors():
    coloring = color_graph(BigramGraph())
    config = WalkerConfig(sentence_len=5)
    with pytest.raises(WalkerError, match="no colors"):
        sample_color_plan(coloring, config, random.Random(0))


def test_config_validation():
    with pytest.raises(ValueError):
        WalkerConfig(sentence_len=0)
    with pytest.raises(ValueError):
        WalkerConfig(sentence_len=1, protocol="shortest")
    with pytest.raises(ValueError):
        WalkerConfig(sentence_len=1, beta_alpha=0.0)


BETA_MAX = sys.float_info.max / 2  # betavariate still returns here, and hangs above it


@pytest.mark.parametrize("field", ["beta_alpha", "beta_beta"])
@pytest.mark.parametrize("value", [math.nan, math.inf, math.nextafter(BETA_MAX, math.inf)],
                         ids=["nan", "inf", "above_max_half"])
def test_config_rejects_beta_parameters_that_never_sample(field, value):
    with pytest.raises(ValueError, match="beta parameters"):
        WalkerConfig(sentence_len=2, **{field: value})


def test_largest_beta_parameters_still_generate(pizza_graph):
    coloring = color_graph(pizza_graph)
    for alpha, beta in ((BETA_MAX, 5.0), (2.0, BETA_MAX), (BETA_MAX, BETA_MAX)):
        config = WalkerConfig(sentence_len=4, beta_alpha=alpha, beta_beta=beta)
        generate(pizza_graph, coloring, config).validate(pizza_graph)


# -- path search ----------------------------------------------------------------

def test_same_endpoint_single_token(pizza_graph):
    assert find_path(pizza_graph, "pizza", "pizza") == ("pizza",)


def test_pizza_min_weight_path(pizza_graph):
    assert find_path(pizza_graph, "i", "pizza") == ("i", "love", "eating", "pizza")


def test_unreachable_returns_none(pizza_graph):
    assert find_path(pizza_graph, "outside", "i") is None


def test_unknown_endpoint(pizza_graph):
    with pytest.raises(WalkerError, match="unknown token"):
        find_path(pizza_graph, "i", "nope")


def test_hop_bound_limits_search():
    chain = {(f"n{i}", f"n{i+1}"): 1 for i in range(5)}
    g = BigramGraph({f"n{i}" for i in range(6)}, chain)
    assert find_path(g, "n0", "n5", max_hops=5) is not None
    assert find_path(g, "n0", "n5", max_hops=4) is None


def test_protocols_optimal_against_enumeration(pizza_graph):
    nodes = sorted(pizza_graph.nodes)
    rng = random.Random(17)
    endpoint_pairs = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(25)]
    endpoint_pairs += [("i", "pizza"), ("the", "pizza"), ("usually", "pizza")]
    for protocol in ("min_weight", "max_weight", "min_density", "max_density"):
        finder = PathFinder(pizza_graph, protocol, max_hops=12)
        for src, dst in endpoint_pairs:
            candidates = all_simple_paths(pizza_graph, src, dst, 12)
            result = finder.find(src, dst)
            if not candidates:
                assert result is None
                continue
            best = min(protocol_cost(pizza_graph, p, protocol) for p in candidates)
            assert protocol_cost(pizza_graph, result, protocol) == best
            winners = [p for p in candidates
                       if protocol_cost(pizza_graph, p, protocol) == best]
            assert result == min(winners)


def test_protocols_optimal_on_random_graphs():
    rng = random.Random(7331)
    for _ in range(12):
        g = random_graph(rng, 9)
        nodes = sorted(g.nodes)
        protocol = rng.choice(("min_weight", "max_weight", "min_density", "max_density"))
        finder = PathFinder(g, protocol, max_hops=6)
        for _ in range(6):
            src, dst = rng.choice(nodes), rng.choice(nodes)
            candidates = all_simple_paths(g, src, dst, 6)
            result = finder.find(src, dst)
            if not candidates:
                assert result is None
                continue
            best = min(protocol_cost(g, p, protocol) for p in candidates)
            assert protocol_cost(g, result, protocol) == best


def test_path_density_matches_degree_view(pizza_graph):
    path = find_path(pizza_graph, "i", "pizza")
    assert path_density(pizza_graph, path) == sum(
        len(pizza_graph.successors(t)) + len(pizza_graph.predecessors(t)) for t in path)


def test_finder_mismatch_rejected(pizza_graph):
    coloring = color_graph(pizza_graph)
    finder = PathFinder(pizza_graph, "max_weight", 12)
    config = WalkerConfig(sentence_len=3, protocol="min_weight", seed=0)
    with pytest.raises(WalkerError, match="finder does not match"):
        generate(pizza_graph, coloring, config, finder=finder)


def test_stats_count_a_hand_checked_query(pizza_graph):
    finder = PathFinder(pizza_graph, "min_weight", 12)
    assert finder.find("i", "pizza") == ("i", "love", "eating", "pizza")
    # pushed: i; love, usually; eating; enjoy; pizza; having. Expanded: the
    # first five of them, in that order; the next pop is the target.
    assert finder.stats() == {"finds": 1, "memo_hits": 0, "searches": 1,
                              "states_expanded": 5, "states_pushed": 7}
    assert finder.find("i", "pizza") == ("i", "love", "eating", "pizza")
    # nothing reaches "i": only the source is pushed and expanded
    assert finder.find("pizza", "i") is None
    assert finder.find("i", "i") == ("i",)
    assert finder.stats() == {"finds": 4, "memo_hits": 1, "searches": 2,
                              "states_expanded": 6, "states_pushed": 8}


def test_find_memory_does_not_grow_with_unused_hops(pizza_graph):
    expected = find_path(pizza_graph, "i", "pizza", max_hops=12)  # builds the adjacency too
    finder = PathFinder(pizza_graph, "min_weight", 10 ** 6)
    path, _, peak = traced(finder.find, "i", "pizza")
    assert path == expected
    assert peak < 64 * 1024  # a reverse pass run to max_hops keeps ~8 MB of layer ends


def test_hop_bound_past_every_simple_path_changes_nothing(pizza_graph):
    nodes = sorted(pizza_graph.nodes)
    for protocol in PROTOCOLS:
        bounded = PathFinder(pizza_graph, protocol, len(nodes))
        huge = PathFinder(pizza_graph, protocol, 10 ** 7)
        for source in nodes:
            for target in nodes:
                assert huge.find(source, target) == bounded.find(source, target)
        assert huge.stats() == bounded.stats()
    assert find_path(pizza_graph, "i", "pizza", max_hops=10 ** 7) == \
        find_path(pizza_graph, "i", "pizza", max_hops=12)


def test_stats_finds_are_memo_hits_plus_searches(pizza_graph):
    nodes = sorted(pizza_graph.nodes)
    rng = random.Random(5)
    finder = PathFinder(pizza_graph, "max_density", 4)
    for _ in range(60):
        finder.find(*rng.sample(nodes, 2))
    stats = finder.stats()
    assert stats["finds"] == 60 == stats["memo_hits"] + stats["searches"]
    assert stats["memo_hits"] > 0
    assert stats["states_pushed"] >= stats["states_expanded"] >= stats["searches"]


# -- search on the SMS graph -------------------------------------------------------

def _drawn_pairs(g, coloring, protocol, max_hops, sentence_len, seeds):
    """The (source, target) finds ``generate`` makes for these sentences."""
    finder = PathFinder(g, protocol, max_hops)
    pairs = []
    find = finder.find
    finder.find = lambda source, target: pairs.append((source, target)) or find(source, target)
    for seed in seeds:
        config = WalkerConfig(sentence_len, protocol, seed=seed, max_hops=max_hops)
        generate(g, coloring, config, finder=finder)
    return pairs


def _edge_case_pairs(g, rng):
    """Finds at the edges of the search: sources with 0 or 1 successors,
    targets one and two hops out from hubs and from ordinary sources, a
    target that is a hub of incoming edges."""
    nodes = sorted(g.nodes)
    hubs_out = sorted(nodes, key=lambda v: (-len(g.successors(v)), v))[:3]
    hub_in = min(nodes, key=lambda v: (-len(g.predecessors(v)), v))
    sinks = [v for v in nodes if not g.successors(v)]
    singles = [v for v in nodes if len(g.successors(v)) == 1]
    pairs = [(v, rng.choice(nodes)) for v in rng.sample(sinks, 3)]
    for v in rng.sample(singles, 3):
        (w,) = g.successors(v)
        pairs += [(v, w), (v, rng.choice(nodes))]
        pairs += [(v, x) for x in g.successors(w)[:1] if x != v]
    for v in hubs_out + rng.sample(nodes, 4):
        out = g.successors(v)
        pairs += [(v, rng.choice(out))] if out else []
        two = sorted({x for u in out[:50] for x in g.successors(u)} - set(out) - {v})
        pairs += [(v, rng.choice(two))] if two else []
    return pairs + [(rng.choice(nodes), hub_in), (hubs_out[0], hub_in)]


# max_hops -> (seeded pairs, sentence_len, walker seeds) per protocol; the
# unpruned search takes ~0.3 s per reachable pair at 8 hops, and more from
# a hub, so the edge cases run up to 4 hops
_ORACLE_DRAWS = {1: (25, 8, [0, 1]), 2: (25, 8, [0, 1]), 3: (20, 8, [0]), 4: (10, 8, [0]),
                 8: (1, 2, [0])}


@pytest.mark.parametrize("max_hops", sorted(_ORACLE_DRAWS))
def test_search_matches_unpruned_search_on_sms_graph(sms_graph, max_hops):
    g = sms_graph
    coloring = color_graph(g)
    nodes = sorted(g.nodes)
    rng = random.Random(max_hops)
    no_way_in = min(v for v in nodes if not g.predecessors(v))
    seeded, sentence_len, seeds = _ORACLE_DRAWS[max_hops]
    edge_cases = _edge_case_pairs(g, random.Random(-max_hops)) if max_hops <= 4 else []
    outcomes = set()
    for protocol in PROTOCOLS:
        pairs = [tuple(rng.sample(nodes, 2)) for _ in range(seeded)]
        pairs += _drawn_pairs(g, coloring, protocol, max_hops, sentence_len, seeds)
        pairs.append((nodes[0] if nodes[0] != no_way_in else nodes[1], no_way_in))
        pairs += edge_cases
        finder, oracle = PathFinder(g, protocol, max_hops), UnprunedFinder(g, protocol, max_hops)
        for src, dst in pairs:
            path = finder.find(src, dst)
            assert path == oracle.find(src, dst), (protocol, src, dst)
            outcomes.add(path is None)
    assert outcomes == {True, False}


def _pinned_queries(g, max_hops):
    """Edge cases and 30 drawn pairs; at 12 hops, where a find costs ~30 ms, 10 of them."""
    rng = random.Random(100 + max_hops)
    pairs = _edge_case_pairs(g, rng) + [tuple(rng.sample(sorted(g.nodes), 2)) for _ in range(30)]
    return pairs if max_hops <= 4 else rng.sample(pairs, 10)


# (protocol, max_hops) -> (states_pushed, states_expanded) for _pinned_queries,
# recorded with a reverse pass to layer max_hops-1 and plain successor scans:
# how far the pass goes and which side a scan takes change the work done per
# state, never the states.
_PINNED_STATS = {
    ("max_weight", 1): (66, 56), ("min_weight", 1): (66, 56),
    ("max_density", 1): (66, 56), ("min_density", 1): (66, 56),
    ("max_weight", 2): (248, 111), ("min_weight", 2): (240, 103),
    ("max_density", 2): (218, 81), ("min_density", 2): (305, 168),
    ("max_weight", 3): (3784, 883), ("min_weight", 3): (3433, 857),
    ("max_density", 3): (2284, 631), ("min_density", 3): (4686, 1311),
    ("max_weight", 4): (18907, 2506), ("min_weight", 4): (14378, 2302),
    ("max_density", 4): (13599, 2315), ("min_density", 4): (14203, 4151),
    ("max_weight", 12): (123916, 26087), ("min_weight", 12): (121099, 27389),
    ("max_density", 12): (139629, 30851), ("min_density", 12): (130196, 46180),
}


@pytest.mark.parametrize("max_hops", [1, 2, 3, 4, 12])
def test_search_state_counts_are_pinned(sms_graph, max_hops):
    pairs = _pinned_queries(sms_graph, max_hops)
    for protocol in PROTOCOLS:
        finder = PathFinder(sms_graph, protocol, max_hops)
        for src, dst in pairs:
            finder.find(src, dst)
        stats = finder.stats()
        assert (stats["states_pushed"], stats["states_expanded"]) == \
            _PINNED_STATS[protocol, max_hops], (protocol, max_hops)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_sentence_time_bound_on_sms_graph(sms_graph, protocol):
    # Loose: about 4x the slowest of these sentences on a 2-core host
    # (0.6 s); the unpruned search took 4.0 and 5.3 s for the density protocols.
    coloring = color_graph(sms_graph)
    t0 = time.perf_counter()
    generate(sms_graph, coloring, WalkerConfig(8, protocol, seed=1, max_hops=12))
    assert time.perf_counter() - t0 < 2.5


# -- generation -----------------------------------------------------------------

def test_sentence_len_one(pizza_graph):
    coloring = color_graph(pizza_graph)
    config = WalkerConfig(sentence_len=1, seed=5)
    sentence = generate(pizza_graph, coloring, config)
    assert len(sentence.tokens) == 1
    assert coloring.labels[sentence.tokens[0]] == sentence.color_plan[0]
    assert sentence.segments == ()


def test_sentence_len_one_strict_tail_empty(pizza_graph):
    coloring = color_graph(pizza_graph)
    config = WalkerConfig(sentence_len=1, seed=5, append_final_word=False)
    assert generate(pizza_graph, coloring, config).tokens == ()


def test_generation_deterministic(pizza_graph):
    coloring = color_graph(pizza_graph)
    config = WalkerConfig(sentence_len=9, seed=123)
    assert generate(pizza_graph, coloring, config) == generate(pizza_graph, coloring, config)


def test_generation_seed_changes_output(pizza_graph):
    coloring = color_graph(pizza_graph)
    outputs = {generate(pizza_graph, coloring,
                        WalkerConfig(sentence_len=9, seed=s)).tokens for s in range(8)}
    assert len(outputs) > 1


def test_generated_structure_valid(pizza_graph):
    coloring = color_graph(pizza_graph)
    for seed in range(30):
        sentence = generate(pizza_graph, coloring, WalkerConfig(sentence_len=7, seed=seed))
        sentence.validate(pizza_graph)
        for segment in sentence.segments:
            if not segment.jump:
                for u, v in pairwise(segment.path):
                    assert pizza_graph.has_edge(u, v)
        assert len(sentence.color_plan) == 7


def test_strict_tail_drops_final_target(pizza_graph):
    coloring = color_graph(pizza_graph)
    kept = generate(pizza_graph, coloring, WalkerConfig(sentence_len=6, seed=2))
    dropped = generate(pizza_graph, coloring,
                       WalkerConfig(sentence_len=6, seed=2, append_final_word=False))
    assert kept.tokens == dropped.tokens + (kept.segments[-1].target,)


def test_generate_on_empty_graph():
    with pytest.raises(WalkerError, match="empty graph"):
        generate(BigramGraph(), color_graph(BigramGraph()), WalkerConfig(sentence_len=2))


def test_generate_rejects_foreign_coloring(pizza_graph):
    other = BigramGraph({"a", "b"}, {("a", "b"): 1})
    with pytest.raises(ColoringMismatchError):
        generate(pizza_graph, color_graph(other), WalkerConfig(sentence_len=2))


def test_foreign_coloring_error_names_both_hashes(pizza_graph):
    foreign = color_graph(BigramGraph({"a", "b"}, {("a", "b"): 1}))
    with pytest.raises(ColoringMismatchError) as info:
        generate(pizza_graph, foreign, WalkerConfig(sentence_len=2))
    message = str(info.value)
    assert f"expected hash {foreign.graph_hash[:12]}..." in message
    assert f"got {pizza_graph.content_hash()[:12]}..." in message


def test_jumps_flagged_when_unreachable():
    # two color classes with no path from the sink back to anything
    g = BigramGraph({"a", "b"}, {("a", "b"): 1}, "line")
    coloring = color_graph(g)
    config = WalkerConfig(sentence_len=4, seed=1, max_retries=2)
    sentence = generate(g, coloring, config)
    sentence.validate(g)
    assert any(seg.jump for seg in sentence.segments) or len(sentence.tokens) >= 1


def test_generation_on_random_graphs_always_valid():
    rng = random.Random(2718)
    for _ in range(15):
        g = random_graph(rng, 25)
        coloring = color_graph(g)
        config = WalkerConfig(sentence_len=6, seed=rng.randrange(10_000))
        sentence = generate(g, coloring, config)
        sentence.validate(g)
