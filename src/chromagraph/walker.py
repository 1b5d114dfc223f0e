"""Random color-guided text generation over a bi-gram graph.

A sentence is planned as a sequence of color labels drawn from a Beta
distribution, then realized by walking inter-word paths: for each
planned color a word of that color is drawn, a protocol-optimal
directed path from the previous word is found, and the path minus its
final word is appended. The final target word is appended after the
loop so the sentence ends where the walk ends (disable with
``append_final_word=False`` to drop it instead).

Path protocols are scored per edge and minimized by an exact
uniform-cost search bounded by ``max_hops``:

  min_weight   cost(u, v) = weight(u, v)
  max_weight   cost(u, v) = 1 + W_max - weight(u, v)
  min_density  cost(u, v) = degree(v)
  max_density  cost(u, v) = 1 + D_max - degree(v)

A reverse breadth-first pass from the target gives each node's fewest
hops to it; a path is extended only to nodes that can still reach the
target in the hops left, and a node is expanded again only with fewer
hops. All costs are >= 1, so an earlier expansion's (cost, path) stays
smaller under any common suffix and the search is exact. Equal-cost
ties go to the lexicographically smallest token sequence.

The pass stops at an empty frontier, so hops the graph cannot use cost
nothing, and one layer short of ``max_hops - 1``: only the source is
expanded with that many hops left, so its successors are tested for an
edge into the deepest layer built instead. A node with more successors
than there are nodes within its remaining hops probes its edges into
those nodes rather than scanning its successors. None of this changes
the pushed (cost, path) entries, and so the results and ``stats()``.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from itertools import chain, pairwise

from .coloring import Coloring, _check_pair
from .graph import BigramGraph

PROTOCOLS = ("max_weight", "min_weight", "max_density", "min_density")
# Above this, random.betavariate's gamma draws overflow and never return.
_BETA_MAX = sys.float_info.max / 2


class WalkerError(ValueError):
    """Generation or path search cannot proceed on this input."""


@dataclass(frozen=True)
class WalkerConfig:
    sentence_len: int
    protocol: str = "min_weight"
    beta_alpha: float = 2.0
    beta_beta: float = 5.0
    seed: int = 0
    max_hops: int = 12
    max_retries: int = 8
    append_final_word: bool = True

    def __post_init__(self):
        if self.sentence_len < 1:
            raise ValueError("sentence_len must be positive")
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol: {self.protocol!r} (expected one of {PROTOCOLS})")
        if not (0 < self.beta_alpha <= _BETA_MAX and 0 < self.beta_beta <= _BETA_MAX):
            raise ValueError("beta parameters must be positive and finite, at most float max / 2")
        if self.max_hops < 1 or self.max_retries < 1:
            raise ValueError("max_hops and max_retries must be positive")


@dataclass(frozen=True)
class PathSegment:
    """One leg of the walk: the found path from source to target.

    A jump is a flagged discontinuity recorded when no path exists
    within the hop bound after all retries; its path is just
    (source, target) and it claims no edge traversal.
    """

    source: str
    target: str
    path: tuple[str, ...]
    jump: bool = False


@dataclass(frozen=True)
class GeneratedSentence:
    tokens: tuple[str, ...]
    color_plan: tuple[int, ...]
    segments: tuple[PathSegment, ...]

    def validate(self, g: BigramGraph) -> None:
        """Check structural invariants against the source graph.

        Non-jump segments must traverse existing directed edges only,
        segments must chain, and the token sequence must equal the
        concatenation of all segment paths minus their final words,
        optionally followed by the last target word.
        """
        for seg in self.segments:
            if seg.jump:
                if seg.path != (seg.source, seg.target):
                    raise WalkerError(f"jump segment {seg.source!r}->{seg.target!r} has a path")
                continue
            if not seg.path or seg.path[0] != seg.source or seg.path[-1] != seg.target:
                raise WalkerError(f"segment path does not span {seg.source!r}->{seg.target!r}")
            for u, v in pairwise(seg.path):
                if not g.has_edge(u, v):
                    raise WalkerError(f"segment uses missing edge {u!r}->{v!r}")
        for a, b in pairwise(self.segments):
            if a.target != b.source:
                raise WalkerError(f"segments do not chain at {a.target!r}/{b.source!r}")
        unknown = [t for t in self.tokens if t not in g.nodes]
        if unknown:
            raise WalkerError(f"sentence contains unknown token {unknown[0]!r}")
        if self.segments:
            body = [t for seg in self.segments for t in seg.path[:-1]]
            closed = body + [self.segments[-1].target]
            if list(self.tokens) not in (body, closed):
                raise WalkerError("tokens do not match the segment concatenation")


def sample_color_plan(coloring: Coloring, config: WalkerConfig,
                      rng: random.Random) -> list[int]:
    """Draw ``sentence_len`` color labels, Beta-skewed toward low labels.

    Each draw is floor(u * num_colors) for u ~ Beta(alpha, beta),
    clamped into the valid label range. Greedy coloring makes low
    classes largest, so the default Beta(2, 5) skew compensates for the
    non-uniform class sizes.
    """
    k = coloring.num_colors
    if k < 1:
        raise WalkerError("coloring has no colors (empty graph)")
    plan = []
    for _ in range(config.sentence_len):
        u = rng.betavariate(config.beta_alpha, config.beta_beta)
        plan.append(min(int(u * k), k - 1))
    return plan


def path_density(g: BigramGraph, path) -> int:
    """Sum of ``g.degree`` over every token on the path."""
    return sum(g.degree(t) for t in path)


def _edge_costs(g: BigramGraph, protocol: str) -> dict[tuple[str, str], int]:
    """Per-edge search costs, keyed by the graph's own edge tuples (shared, never mutated)."""
    if protocol == "min_weight":
        return g.edges
    if protocol == "max_weight":
        w_max = max(g.edges.values(), default=0)
        return {e: 1 + w_max - w for e, w in g.edges.items()}
    totals = {v: g.degree(v) for v in g.nodes}
    if protocol == "min_density":
        return {e: totals[e[1]] for e in g.edges}
    d_max = max(totals.values(), default=0)
    return {e: 1 + d_max - totals[e[1]] for e in g.edges}


class PathFinder:
    """Reusable protocol-optimal path search over one graph.

    Caches per-edge costs and found paths, so repeated queries (as in
    sentence generation) stay cheap.
    """

    def __init__(self, g: BigramGraph, protocol: str = "min_weight", max_hops: int = 12):
        if protocol not in PROTOCOLS:
            raise WalkerError(f"unknown protocol: {protocol!r} (expected one of {PROTOCOLS})")
        if max_hops < 1:
            raise WalkerError("max_hops must be positive")
        self.graph = g
        self.protocol = protocol
        self.max_hops = max_hops
        self._cost = _edge_costs(g, protocol)
        self._memo: dict[tuple[str, str], tuple[str, ...] | None] = {}
        self._stats = Counter(finds=0, memo_hits=0, searches=0, states_expanded=0, states_pushed=0)

    def stats(self) -> dict[str, int]:
        """Finds that returned, memo hits, searches, and heap states expanded and pushed."""
        return dict(self._stats)

    def find(self, source: str, target: str) -> tuple[str, ...] | None:
        """Cheapest simple path source -> target, or None if unreachable.

        Uniform-cost search; the heap orders entries by (cost, token
        sequence) so the first target pop is the optimal path with the
        lexicographically smallest tie-break.
        """
        for token in (source, target):
            if token not in self.graph.nodes:
                raise WalkerError(f"unknown token: {token!r}")
        self._stats["finds"] += 1
        if source == target:
            return (source,)
        key = (source, target)
        if key in self._memo:
            self._stats["memo_hits"] += 1
            return self._memo[key]
        result = self._memo[key] = self._search(source, target)
        return result

    def _search(self, source, target):
        cost_of = self._cost
        successors = self.graph.successors
        predecessors = self.graph.predecessors
        max_hops = self.max_hops
        far = max_hops + 1  # more hops than any search uses
        # Reverse breadth-first layers 0..max_hops-2 from the target, to the
        # first empty one. togo[v] is v's fewest hops to it (absent: none within
        # max_hops - 2), and near[:ends[d]] lists the nodes at most d hops away.
        togo = {target: 0}
        near = [target]
        ends = [1]
        frontier = [target]
        for dist in range(1, max_hops - 1):
            if not frontier:
                break
            reached = []
            for v in frontier:
                for u in predecessors(v):
                    if u not in togo:
                        togo[u] = dist
                        reached.append(u)
            near += reached
            ends.append(len(near))
            frontier = reached
        # Layer max_hops-1 is only needed for the source's own successors, as
        # the source alone is expanded with that many hops left. A successor
        # outside togo lies in it iff it has an edge into the deepest layer
        # built (frontier): intersect the successors with that layer's
        # predecessors, or test each successor, whichever side is smaller.
        # With max_hops 1 the source has no hops to spare: only the target.
        out = successors(source)
        firsts = togo.keys() & out
        if max_hops > 1:
            rest = set(out).difference(togo)
            if len(rest) > len(frontier):
                firsts |= rest.intersection(chain.from_iterable(map(predecessors, frontier)))
            else:
                firsts.update(nxt for nxt in rest if not togo.keys().isdisjoint(successors(nxt)))
        firsts.discard(source)
        heap = [(cost_of[(source, nxt)], (source, nxt)) for nxt in firsts]
        heapify(heap)
        deepest = len(ends) - 1
        expanded: dict[str, int] = {source: 0}  # node -> fewest hops it was expanded with
        pushed, expansions = 1 + len(heap), 1
        found = None
        while heap:
            cost, path = heappop(heap)
            node = path[-1]
            if node == target:
                found = path
                break
            hops = len(path) - 1
            if expanded.get(node, far) <= hops:
                continue
            expanded[node] = hops
            expansions += 1
            left = max_hops - hops - 1
            out = successors(node)
            nearby = ends[left] if left <= deepest else ends[deepest]
            if len(out) > nearby:
                # more successors than nodes within `left` hops of the target
                # (at the last hop, just the target): probe edges into those
                for nxt in near[:nearby]:
                    step = cost_of.get((node, nxt))
                    if step is not None and expanded.get(nxt, far) > hops + 1:
                        heappush(heap, (cost + step, path + (nxt,)))
                        pushed += 1
            else:
                for nxt in out:
                    if togo.get(nxt, far) <= left and expanded.get(nxt, far) > hops + 1:
                        heappush(heap, (cost + cost_of[(node, nxt)], path + (nxt,)))
                        pushed += 1
        self._stats.update(searches=1, states_expanded=expansions, states_pushed=pushed)
        return found


def find_path(g: BigramGraph, source: str, target: str,
              protocol: str = "min_weight", max_hops: int = 12) -> tuple[str, ...] | None:
    """One-off protocol-optimal path query (see PathFinder)."""
    return PathFinder(g, protocol, max_hops).find(source, target)


def generate(g: BigramGraph, coloring: Coloring, config: WalkerConfig, *,
             finder: PathFinder | None = None) -> GeneratedSentence:
    """Generate one sentence; fully determined by (graph, coloring, config).

    A prepared PathFinder for the same graph/protocol/hop bound may be
    passed to share its caches across many generations. Structural
    invariants are validated on every call before returning.
    """
    if not g.nodes:
        raise WalkerError("cannot generate from an empty graph")
    _check_pair(g, coloring)
    if finder is None:
        finder = PathFinder(g, config.protocol, config.max_hops)
    elif (finder.graph.content_hash() != g.content_hash()
          or finder.protocol != config.protocol or finder.max_hops != config.max_hops):
        raise WalkerError("finder does not match the graph/protocol/max_hops of this call")

    rng = random.Random(config.seed)
    plan = sample_color_plan(coloring, config, rng)
    by_color = coloring.classes

    def pick(color: int) -> str:
        words = by_color.get(color)
        if not words:
            raise WalkerError(f"no node carries color {color} (degenerate coloring)")
        return rng.choice(words)

    last = pick(plan[0])
    tokens: list[str] = []
    segments: list[PathSegment] = []
    for color in plan[1:]:
        for _ in range(config.max_retries):  # at least one, as WalkerConfig checks
            current = pick(color)
            path = finder.find(last, current)
            if path is not None:
                break
        segment = PathSegment(last, current, path or (last, current), jump=path is None)
        tokens.extend(segment.path[:-1])
        segments.append(segment)
        last = current
    if config.append_final_word:
        tokens.append(last)
    sentence = GeneratedSentence(tuple(tokens), tuple(plan), tuple(segments))
    sentence.validate(g)
    return sentence
