"""Reference similarity measures and a bag-of-words classifier.

TF-IDF uses raw term counts and the smoothed inverse document
frequency ln((1 + N) / (1 + df)) + 1, so every value in the repo is
reproducible bit for bit. The classifier is a multinomial naive Bayes
with additive smoothing; it is deterministic, order-invariant over
document tokens, and total (an empty document falls back to the class
priors).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Mapping, Sequence

from ._files import gc_paused
from .corpus import Corpus, Document


@dataclass(frozen=True)
class TfidfModel:
    vocabulary: dict[str, int]
    idf: dict[str, float]
    doc_count: int


@gc_paused
def tfidf_fit(corpus: Corpus) -> TfidfModel:
    """Fit vocabulary and idf values on a non-empty corpus."""
    if not corpus.docs:
        raise ValueError("cannot fit TF-IDF on an empty corpus")
    df = Counter(chain.from_iterable(set(doc.tokens) for doc in corpus.docs))
    vocabulary = {token: i for i, token in enumerate(sorted(df))}
    n = len(corpus.docs)
    idf = {token: math.log((1 + n) / (1 + df[token])) + 1.0 for token in vocabulary}
    return TfidfModel(vocabulary, idf, n)


def tfidf_embed(model: TfidfModel, doc: Document) -> dict[int, float]:
    """Sparse tf*idf vector; out-of-vocabulary tokens are ignored."""
    vocabulary, idf = model.vocabulary, model.idf
    return {vocabulary[t]: c * idf[t] for t, c in Counter(doc.tokens).items() if t in vocabulary}


@gc_paused
def tfidf_centroid(model: TfidfModel, corpus: Corpus) -> dict[int, float]:
    """Mean of the ``tfidf_embed`` vectors; the corpus-level embedding."""
    acc: dict[int, float] = {}
    for doc in corpus.docs:
        for i, x in tfidf_embed(model, doc).items():
            acc[i] = acc.get(i, 0.0) + x
    n = len(corpus.docs)
    return {i: x / n for i, x in acc.items()} if n else {}


def _as_sparse(vec) -> dict[int, float]:
    if isinstance(vec, Mapping):
        return {i: float(x) for i, x in vec.items() if x}
    return {i: float(x) for i, x in enumerate(vec) if x}


def cosine(a, b) -> float:
    """Cosine similarity of two vectors (sparse dicts or sequences).

    Returns 0.0 when either vector has zero norm.
    """
    va, vb = _as_sparse(a), _as_sparse(b)
    na = math.sqrt(math.fsum(x * x for x in va.values()))
    nb = math.sqrt(math.fsum(x * x for x in vb.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    if len(va) > len(vb):
        va, vb = vb, va
    dot = math.fsum(x * vb.get(i, 0.0) for i, x in va.items())
    return dot / (na * nb)


def jaccard(a: Iterable[str], b: Iterable[str]) -> float:
    """Intersection over union of two token sets; 0.0 when both are empty."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        return 0.0
    return len(sa & sb) / len(union)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation coefficient.

    Raises ValueError on length mismatch, fewer than two points, or
    zero variance in either argument.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    n = len(xs)
    if n < 2:
        raise ValueError("need at least two points")
    mx = math.fsum(xs) / n
    my = math.fsum(ys) / n
    cov = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sx = math.fsum((x - mx) ** 2 for x in xs)
    sy = math.fsum((y - my) ** 2 for y in ys)
    if sx == 0.0 or sy == 0.0:
        raise ValueError("zero variance")
    return cov / math.sqrt(sx * sy)


@dataclass(frozen=True)
class BowClassifier:
    """Multinomial naive Bayes over raw token counts."""

    classes: tuple[str, ...]
    log_prior: dict[str, float]
    log_likelihood: dict[str, dict[str, float]]
    vocabulary: frozenset[str]
    alpha: float


@gc_paused
def bow_train(corpus: Corpus, labels: Sequence[str], alpha: float = 1.0) -> BowClassifier:
    """Train on aligned (document, label) pairs; needs >= 2 classes."""
    if len(corpus.docs) != len(labels):
        raise ValueError(f"corpus/label length mismatch: {len(corpus.docs)} vs {len(labels)}")
    if not 0 < alpha < math.inf:  # NaN fails too
        raise ValueError("alpha must be positive and finite")
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise ValueError("need at least two classes")
    vocabulary = sorted(corpus.vocabulary())
    v = len(vocabulary)
    doc_count = Counter(labels)
    token_counts: dict[str, Counter[str]] = {c: Counter() for c in classes}
    for doc, label in zip(corpus.docs, labels):
        token_counts[label].update(doc.tokens)
    n = len(labels)
    log_prior = {c: math.log(doc_count[c] / n) for c in classes}
    log_likelihood: dict[str, dict[str, float]] = {}
    for c in classes:
        counts = token_counts[c]
        denom = sum(counts.values()) + alpha * v
        log_likelihood[c] = {t: math.log((counts.get(t, 0) + alpha) / denom)
                             for t in vocabulary}
    return BowClassifier(classes, log_prior, log_likelihood, frozenset(vocabulary), alpha)


def bow_scores(clf: BowClassifier, doc: Document) -> dict[str, float]:
    """Log-joint score per class; tokens outside the vocabulary are ignored.

    Contributions accumulate in sorted-token order, so scores are
    exactly invariant to the document's token order.
    """
    scores = dict(clf.log_prior)
    counts = Counter(t for t in doc.tokens if t in clf.vocabulary)
    for token in sorted(counts):
        n = counts[token]
        for c in clf.classes:
            scores[c] += n * clf.log_likelihood[c][token]
    return scores


def bow_predict(clf: BowClassifier, doc: Document) -> str:
    """Highest-scoring class; ties go to the lexicographically smallest label."""
    scores = bow_scores(clf, doc)
    return min(clf.classes, key=lambda c: (-scores[c], c))


def evaluate_predictions(y_true: Sequence[str], y_pred: Sequence[str]) -> dict:
    """Accuracy, per-class precision/recall, and a confusion matrix."""
    if len(y_true) != len(y_pred):
        raise ValueError("prediction/label length mismatch")
    if not y_true:
        raise ValueError("nothing to evaluate")
    classes = sorted(set(y_true) | set(y_pred))
    confusion = {t: {p: 0 for p in classes} for t in classes}
    for t, p in zip(y_true, y_pred):
        confusion[t][p] += 1
    accuracy = sum(confusion[c][c] for c in classes) / len(y_true)
    precision = {}
    recall = {}
    for c in classes:
        predicted = sum(confusion[t][c] for t in classes)
        actual = sum(confusion[c].values())
        precision[c] = confusion[c][c] / predicted if predicted else 0.0
        recall[c] = confusion[c][c] / actual if actual else 0.0
    return {
        "accuracy": accuracy,
        "classes": classes,
        "precision": precision,
        "recall": recall,
        "confusion": confusion,
    }
