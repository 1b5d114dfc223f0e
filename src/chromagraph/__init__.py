"""Bi-gram graph corpus analytics.

A corpus is represented as a weighted directed graph of its adjacent
token pairs; analytics are derived from graph attributes: greedy
coloring tags, k-core vocabulary reduction, a color-agreement
similarity coefficient between corpora, per-token color embeddings,
cross-corpus coloring projection, and color-guided sentence generation.
"""

from ._files import SchemaError
from .baselines import (bow_predict, bow_scores, bow_train, cosine, evaluate_predictions,
                        jaccard, pearson, tfidf_centroid, tfidf_embed, tfidf_fit)
from .coloring import (ColoringMismatchError, ImproperColoringError, check_properness,
                       chromatic_similarity, color_graph, embed_text, load_coloring,
                       project_coloring, save_coloring, similarity_matrix,
                       tag_distribution_by_color)
from .corpus import (Corpus, CorpusFormatError, Document, IngestConfig, load_corpus,
                     load_labeled_corpus, read_stopwords, tokenize)
from .graph import BigramGraph, build_graph, load_graph, merge, save_graph
from .kcore import (KCoreError, KCoreSubgraph, core_decomposition, core_report, extract_kcore,
                    reduce_corpus)
from .walker import (PathFinder, WalkerConfig, WalkerError, find_path, generate, path_density,
                     sample_color_plan)

__version__ = "0.1.0"

__all__ = [
    "BigramGraph",
    "ColoringMismatchError",
    "Corpus",
    "CorpusFormatError",
    "Document",
    "ImproperColoringError",
    "IngestConfig",
    "KCoreError",
    "KCoreSubgraph",
    "PathFinder",
    "SchemaError",
    "WalkerConfig",
    "WalkerError",
    "bow_predict",
    "bow_scores",
    "bow_train",
    "build_graph",
    "check_properness",
    "chromatic_similarity",
    "color_graph",
    "core_decomposition",
    "core_report",
    "cosine",
    "embed_text",
    "evaluate_predictions",
    "extract_kcore",
    "find_path",
    "generate",
    "jaccard",
    "load_coloring",
    "load_corpus",
    "load_graph",
    "load_labeled_corpus",
    "merge",
    "path_density",
    "pearson",
    "project_coloring",
    "read_stopwords",
    "reduce_corpus",
    "sample_color_plan",
    "save_coloring",
    "save_graph",
    "similarity_matrix",
    "tag_distribution_by_color",
    "tfidf_centroid",
    "tfidf_embed",
    "tfidf_fit",
    "tokenize",
]
