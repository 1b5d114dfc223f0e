"""Graph coloring and the analytics derived from color labels.

Coloring is greedy and deterministic: nodes are visited in a fixed
strategy order and each gets the smallest color not used by any node
in its ``BigramGraph.arcs``, so edge direction is ignored. The pass
runs on the graph's integer index, whose arcs follow the same
convention, and degree is the length of a node's arcs there, as in
``BigramGraph.degree``. Determinism is what makes labels comparable
across graphs colored with the same strategy, which the similarity
coefficient and cross-corpus projection rely on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

from ._files import (SchemaError, atomic_write_bytes, canonical_json_bytes, check_version,
                     gc_paused, parse_json_bytes)
from .corpus import Corpus, Document
from .graph import BigramGraph

STRATEGIES = ("degree_desc", "lexicographic")
COLORING_SCHEMA_VERSION = 1
UNKNOWN_LABEL = -1
UNANNOTATED_TAG = "UNK"


class ImproperColoringError(RuntimeError):
    """A produced coloring assigned equal colors to adjacent nodes."""


class ColoringMismatchError(ValueError):
    """A coloring does not belong to the given graph or is not comparable."""


@dataclass(frozen=True)
class Coloring:
    """A total node -> color map with the number of colors used.

    Labels are contiguous integers starting at 0. ``algorithm_id``
    records the producing strategy; colorings are only comparable when
    their algorithm ids match. ``graph_hash`` ties the coloring to the
    exact graph it was computed on.
    """

    labels: dict[str, int]
    num_colors: int
    algorithm_id: str
    graph_hash: str

    @cached_property
    def classes(self) -> dict[int, tuple[str, ...]]:
        """Color -> its tokens, sorted; grouped once per coloring."""
        classes: dict[int, list[str]] = {}
        for token, color in self.labels.items():
            classes.setdefault(color, []).append(token)
        return {color: tuple(sorted(tokens)) for color, tokens in classes.items()}


@dataclass(frozen=True, slots=True)
class ChromaticVector:
    """Per-token color labels of one text; UNKNOWN_LABEL marks unknown tokens."""

    values: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class SimilarityResult:
    """Color-agreement similarity between two colored graphs.

    ``shared`` counts tokens present in both node sets, ``agreeing``
    counts shared tokens whose colors match, and ``score`` is their
    ratio (0.0 when nothing is shared, so disjoint vocabularies never
    divide by zero).
    """

    shared: int
    agreeing: int
    score: float


@dataclass(frozen=True)
class ProjectionResult:
    """Vectors from applying one graph's coloring to a foreign corpus."""

    vectors: tuple[ChromaticVector, ...]
    coverage: float


def check_properness(g: BigramGraph, labels: Mapping[str, int]) -> None:
    """Exhaustively verify a proper coloring over all edges.

    Self-loops are exempt (a node trivially shares its own color).
    Raises ImproperColoringError on any uncolored node or any edge
    joining two equal-colored distinct nodes. The pass runs on the
    integer index, where each edge is an arc of both its ends.
    """
    missing = [v for v in g.nodes if v not in labels]
    if missing:
        raise ImproperColoringError(f"{len(missing)} nodes have no color, e.g. {missing[0]!r}")
    tokens, arcs = g._index
    colors = [labels[t] for t in tokens]
    for v, ns in enumerate(arcs):
        color = colors[v]
        for u in ns:
            if colors[u] == color and u != v:
                a, b = tokens[v], tokens[u]
                src, dst = (a, b) if g.has_edge(a, b) else (b, a)
                raise ImproperColoringError(
                    f"edge ({src!r}, {dst!r}) joins two nodes of color {color}")


def color_graph(g: BigramGraph, strategy: str = "degree_desc") -> Coloring:
    """Greedily color the undirected simplification of ``g``.

    ``degree_desc`` visits nodes by ``g.degree`` descending (ties broken
    lexicographically); ``lexicographic`` visits in token order. The
    result is deterministic for a given graph and strategy, and its
    properness is verified before returning. An empty graph yields an
    empty coloring with zero colors.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown coloring strategy: {strategy!r} (expected one of {STRATEGIES})")
    graph_hash = g.content_hash()
    tokens, arcs = g._index
    order = range(len(tokens))
    if strategy == "degree_desc":
        # a stable sort: equal degrees stay in index order, which is token order
        order = sorted(order, key=list(map(len, arcs)).__getitem__, reverse=True)
    colors = [-1] * len(tokens)  # -1: not colored yet, never a candidate
    labels: dict[str, int] = {}
    for v in order:
        used = {colors[u] for u in arcs[v]}
        color = 0
        while color in used:
            color += 1
        colors[v] = color
        labels[tokens[v]] = color
    num_colors = max(colors) + 1 if colors else 0
    check_properness(g, labels)
    return Coloring(labels, num_colors, f"greedy-{strategy}-v1", graph_hash)


def _check_pair(g: BigramGraph, coloring: Coloring) -> None:
    """Raise ColoringMismatchError unless ``coloring`` belongs to ``g``.

    It belongs when its graph hash is ``g``'s and its labels are on
    exactly ``g``'s nodes. The hash fixes the node set, so the labels of
    one coloring object are compared once and the pass is remembered.
    """
    if coloring.graph_hash != g.content_hash():
        raise ColoringMismatchError(
            f"coloring was computed on a different graph "
            f"(expected hash {coloring.graph_hash[:12]}..., got {g.content_hash()[:12]}...)")
    checked = vars(coloring)  # writable, as for the cached properties
    if "_labels_match" not in checked:
        labels = coloring.labels.keys()
        if labels != g.nodes:
            missing, extra = g.nodes - labels, labels - g.nodes
            raise ColoringMismatchError(
                f"coloring labels do not match the graph's nodes: {len(missing)} nodes "
                f"unlabelled, {len(extra)} labelled tokens not in the graph"
                + (f" (e.g. {min(extra)!r})" if extra else ""))
        checked["_labels_match"] = True


def chromatic_similarity(g1: BigramGraph, c1: Coloring,
                         g2: BigramGraph, c2: Coloring) -> SimilarityResult:
    """Fraction of shared-vocabulary tokens whose color labels agree.

    The shared count is computed first; when it is zero the score is
    0.0 with no division. Labels are only comparable between colorings
    produced by the same algorithm, which is checked.
    """
    _check_pair(g1, c1)
    _check_pair(g2, c2)
    return _agreement(c1, c2)


def _agreement(c1: Coloring, c2: Coloring) -> SimilarityResult:
    """``chromatic_similarity`` of two colorings that passed ``_check_pair``:
    each one's labels are on exactly its graph's nodes, so no graph is read."""
    if c1.algorithm_id != c2.algorithm_id:
        raise ColoringMismatchError(
            f"colorings are not comparable: {c1.algorithm_id!r} vs {c2.algorithm_id!r}")
    common = c1.labels.keys() & c2.labels.keys()
    shared = len(common)
    if shared == 0:
        return SimilarityResult(0, 0, 0.0)
    agreeing = sum(1 for token in common if c1.labels[token] == c2.labels[token])
    return SimilarityResult(shared, agreeing, agreeing / shared)


def similarity_matrix(items: Sequence[tuple[BigramGraph, Coloring]]) -> list[list[float]]:
    """Pairwise similarity scores; symmetric with unit diagonal for
    non-empty graphs (an empty graph shares nothing, even with itself)."""
    for g, c in items:
        _check_pair(g, c)
    return _agreement_matrix([c for _, c in items])


def _agreement_matrix(colorings: Sequence[Coloring]) -> list[list[float]]:
    """``similarity_matrix`` of colorings that passed ``_check_pair``."""
    n = len(colorings)
    matrix = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            score = _agreement(colorings[i], colorings[j]).score
            matrix[i][j] = score
            matrix[j][i] = score
    return matrix


def embed_text(doc: Document, coloring: Coloring) -> ChromaticVector:
    """Map each token to its color label; unknown tokens map to -1.

    The vector length always equals the token count. Distinct token
    sequences can share an embedding: the map is not injective.
    """
    return ChromaticVector(tuple(map(coloring.labels.get, doc.tokens, repeat(UNKNOWN_LABEL))))


@gc_paused
def project_coloring(coloring: Coloring, foreign: Corpus) -> ProjectionResult:
    """Apply a coloring to every document of a foreign corpus.

    Each vector is ``embed_text``'s. Coverage is the fraction of foreign
    tokens that received a real label (0.0 for a corpus with no tokens
    at all).
    """
    get = coloring.labels.get
    vectors = tuple(ChromaticVector(tuple(map(get, doc.tokens, repeat(UNKNOWN_LABEL))))
                    for doc in foreign.docs)
    total = sum(len(v.values) for v in vectors)
    known = total - sum(v.values.count(UNKNOWN_LABEL) for v in vectors)
    coverage = known / total if total else 0.0
    return ProjectionResult(vectors, coverage)


def tag_distribution_by_color(coloring: Coloring,
                              annotations: Mapping[str, str]) -> dict[int, dict[str, float]]:
    """Normalized tag histogram per color label.

    ``annotations`` maps tokens to external tag strings (part of
    speech, entity type, anything); tokens without an annotation are
    counted under "UNK". Each color's histogram sums to 1.
    """
    result: dict[int, dict[str, float]] = {}
    for color, tokens in sorted(coloring.classes.items()):
        counts = Counter(annotations.get(token, UNANNOTATED_TAG) for token in tokens)
        result[color] = {tag: n / len(tokens) for tag, n in sorted(counts.items())}
    return result


def coloring_payload(coloring: Coloring) -> dict:
    """Canonical on-disk structure with lexicographically sorted labels."""
    return {
        "version": COLORING_SCHEMA_VERSION,
        "algorithm_id": coloring.algorithm_id,
        "graph_hash": coloring.graph_hash,
        "num_colors": coloring.num_colors,
        "labels": dict(sorted(coloring.labels.items())),
    }


def save_coloring(coloring: Coloring, path) -> None:
    atomic_write_bytes(path, canonical_json_bytes(coloring_payload(coloring)))


@gc_paused
def load_coloring(path) -> Coloring:
    """Load a coloring file, enforcing the label-range invariants."""
    name = str(path)
    payload = parse_json_bytes(Path(path).read_bytes(), name)
    check_version(payload, COLORING_SCHEMA_VERSION, name, "coloring")
    labels = payload.get("labels")
    num_colors = payload.get("num_colors")
    algorithm_id = payload.get("algorithm_id")
    graph_hash = payload.get("graph_hash")
    if not isinstance(labels, dict) or not all(
            isinstance(t, str) and type(c) is int for t, c in labels.items()):
        raise SchemaError(f"{name}: 'labels' must map tokens to integer colors")
    if not isinstance(algorithm_id, str) or not isinstance(graph_hash, str):
        raise SchemaError(f"{name}: 'algorithm_id' and 'graph_hash' must be strings")
    if type(num_colors) is not int:
        raise SchemaError(f"{name}: 'num_colors' must be an integer")
    if labels:
        seen = set(labels.values())
        if min(seen) < 0 or max(seen) + 1 != num_colors or len(seen) != num_colors:
            raise SchemaError(f"{name}: labels must cover 0..num_colors-1 with no gaps")
    elif num_colors != 0:
        raise SchemaError(f"{name}: empty labels require num_colors == 0")
    return Coloring(dict(labels), num_colors, algorithm_id, graph_hash)
