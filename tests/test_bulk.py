"""Bulk passes: the collector pause around them, and their per-document loops.

The loop tests keep each rewritten loop's previous definition as an
oracle and compare outputs exactly, dict order included.
"""

import functools
import gc
import inspect
import math
import random
import re
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

from chromagraph import (Corpus, Document, IngestConfig, SchemaError, bow_predict, bow_train,
                         build_graph, color_graph, core_decomposition, embed_text,
                         extract_kcore, load_corpus, load_graph, load_labeled_corpus,
                         project_coloring, read_stopwords, reduce_corpus, tfidf_centroid,
                         tfidf_embed, tfidf_fit)
from chromagraph import _files
from chromagraph.baselines import BowClassifier, TfidfModel
from chromagraph.cli import main
from chromagraph.coloring import UNKNOWN_LABEL, ChromaticVector, ProjectionResult
from conftest import DATA_DIR

# -- the pause rule -------------------------------------------------------------


@pytest.fixture
def collector_on():
    """The collector on for the test, and back in its prior state after it."""
    enabled = gc.isenabled()
    gc.enable()
    yield
    if not enabled:
        gc.disable()


def test_pause_restores_the_collector_after_a_return_and_a_raise(collector_on):
    seen = []

    @_files.gc_paused
    def bulk(fail):
        seen.append(gc.isenabled())
        if fail:
            raise ValueError("bad input")
        return "done"

    assert bulk(False) == "done"
    assert gc.isenabled()
    with pytest.raises(ValueError, match="bad input"):
        bulk(True)
    assert gc.isenabled()
    assert seen == [False, False]


def test_pause_keeps_a_disabled_collector_disabled(collector_on):
    bulk = _files.gc_paused(lambda: gc.isenabled())
    gc.disable()
    try:
        assert bulk() is False
        assert not gc.isenabled()
        with pytest.raises(TypeError):
            bulk("an argument it does not take")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_pause_leaves_the_collector_as_it_found_it(collector_on):
    states = []
    inner = _files.gc_paused(lambda: states.append(("inner", gc.isenabled())))

    @_files.gc_paused
    def outer():
        inner()
        states.append(("outer", gc.isenabled()))

    outer()
    assert gc.isenabled()
    assert states == [("inner", False), ("outer", False)]


def test_overlapping_pauses_in_threads_leave_the_collector_on(collector_on):
    bulk = _files.gc_paused(lambda: [[i] for i in range(50)])

    def hammer(start):
        start.wait(timeout=30)
        for _ in range(200):
            bulk()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
    try:
        for _ in range(20):
            start = threading.Barrier(6)
            threads = [threading.Thread(target=hammer, args=(start,)) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert gc.isenabled()
    finally:
        sys.setswitchinterval(switch)


def test_library_and_cli_calls_leave_the_collector_on(collector_on, tmp_path):
    with pytest.raises(ValueError):
        tfidf_fit(Corpus(()))
    assert gc.isenabled()
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 1, "nodes": [1]}', encoding="utf-8")
    with pytest.raises(SchemaError):
        load_graph(bad)
    assert gc.isenabled()
    assert main(["color", str(bad), "-o", str(tmp_path / "c.json")]) == 5
    assert gc.isenabled()
    assert main(["color", str(tmp_path / "absent.json"), "-o", str(tmp_path / "c.json")]) == 3
    assert gc.isenabled()


def unreachable_after(run) -> int:
    """Objects the collector finds unreachable after ``run()`` ran with it off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        run()
        assert not gc.isenabled()  # no pause inside turned it on
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_an_sms_pass_leaves_no_cyclic_garbage():
    def sms_pass():
        config = IngestConfig(stopwords=read_stopwords(DATA_DIR / "stopwords-en.txt"),
                              label_field="spam")
        corpus, labels = load_labeled_corpus(DATA_DIR / "sms-spam.csv", "csv", config)
        graph = build_graph(corpus)
        graph.content_hash()
        coloring = color_graph(graph)
        decomp = core_decomposition(graph)
        core = extract_kcore(graph, decomposition=decomp)
        reduced = reduce_corpus(corpus, core)
        project_coloring(coloring, reduced)
        clf = bow_train(reduced, labels)
        [bow_predict(clf, doc) for doc in reduced.docs[:200]]
        tfidf_centroid(tfidf_fit(corpus), reduced)

    assert unreachable_after(sms_pass) == 0


def test_a_cli_sequence_leaves_no_cyclic_garbage(tmp_path, monkeypatch):
    # each argument parser built and dropped would leave hundreds of objects in cycles
    monkeypatch.setenv("CHROMAGRAPH_CACHE_DIR", str(tmp_path / "cache"))
    sms = str(DATA_DIR / "sms-spam.csv")
    ingest = ["--format", "csv", "--stopwords", str(DATA_DIR / "stopwords-en.txt")]
    graph, out = str(tmp_path / "graph.json"), str(tmp_path / "out.json")
    sequence = [
        ["build", sms, *ingest, "-o", graph],
        ["build", sms, *ingest, "-o", str(tmp_path / "cached.json")],
        ["color", graph, "-o", str(tmp_path / "coloring.json")],
        ["kcore", graph, "--max", "-o", str(tmp_path / "core.json")],
        ["classify", sms, *ingest, "--label-field", "spam", "--kcore-reduce", "-o", out],
    ]
    codes = []
    assert unreachable_after(lambda: codes.extend(main(argv) for argv in sequence)) == 0
    assert codes == [0] * len(sequence)
    assert (tmp_path / "cached.json").read_bytes() == Path(graph).read_bytes()


def test_only_the_pause_touches_the_collector():
    package = Path(_files.__file__).parent
    users = sorted(path.name for path in package.glob("*.py")
                   if re.search(r"^\s*(import|from)\s+gc\b|\bgc\.",
                                path.read_text(encoding="utf-8"), re.MULTILINE))
    assert users == ["_files.py"]
    calls = re.findall(r"\bgc\.(?:disable|enable)\(\)", Path(_files.__file__).read_text("utf-8"))
    pause = inspect.getsource(_files.gc_paused)
    assert sorted(calls) == sorted(re.findall(r"\bgc\.(?:disable|enable)\(\)", pause)) == [
        "gc.disable()", "gc.enable()"]


# -- the per-document loops against their previous definitions -----------------------


def old_tfidf_fit(corpus):
    df = Counter()
    for doc in corpus.docs:
        df.update(set(doc.tokens))
    vocabulary = {token: i for i, token in enumerate(sorted(df))}
    n = len(corpus.docs)
    idf = {token: math.log((1 + n) / (1 + df[token])) + 1.0 for token in vocabulary}
    return TfidfModel(vocabulary, idf, n)


def old_tfidf_embed(model, doc):
    counts = Counter(t for t in doc.tokens if t in model.vocabulary)
    return {model.vocabulary[t]: c * model.idf[t] for t, c in counts.items()}


def old_tfidf_centroid(model, corpus):
    """The mean of the ``tfidf_embed`` vectors, accumulated in document order."""
    acc = {}
    for doc in corpus.docs:
        for i, x in tfidf_embed(model, doc).items():
            acc[i] = acc.get(i, 0.0) + x
    n = len(corpus.docs)
    return {i: x / n for i, x in acc.items()} if n else {}


def old_embed_text(doc, coloring):
    return ChromaticVector(tuple(coloring.labels.get(t, UNKNOWN_LABEL) for t in doc.tokens))


def old_project_coloring(coloring, foreign):
    vectors = tuple(old_embed_text(doc, coloring) for doc in foreign.docs)
    total = sum(len(v) for v in vectors)
    known = sum(1 for v in vectors for x in v.values if x != UNKNOWN_LABEL)
    return ProjectionResult(vectors, known / total if total else 0.0)


def old_reduce_corpus(corpus, core):
    docs = tuple(Document(tuple(t for t in doc.tokens if t in core.retained))
                 for doc in corpus.docs)
    return Corpus(docs, corpus.source_id)


def old_bow_train(corpus, labels, alpha=1.0):
    classes = tuple(sorted(set(labels)))
    vocabulary = sorted(corpus.vocabulary())
    v = len(vocabulary)
    doc_count = Counter(labels)
    token_counts = {c: Counter() for c in classes}
    for doc, label in zip(corpus.docs, labels):
        token_counts[label].update(doc.tokens)
    n = len(labels)
    log_prior = {c: math.log(doc_count[c] / n) for c in classes}
    log_likelihood = {}
    for c in classes:
        total = sum(token_counts[c].values())
        denom = total + alpha * v
        log_likelihood[c] = {t: math.log((token_counts[c][t] + alpha) / denom)
                             for t in vocabulary}
    return BowClassifier(classes, log_prior, log_likelihood, frozenset(vocabulary), alpha)


def random_corpus(rng, words, docs=40):
    """Documents of 0..14 tokens drawn with repeats, so some are empty."""
    return Corpus(tuple(Document(tuple(rng.choice(words) for _ in range(rng.randrange(15))))
                        for _ in range(docs)), "random")


def corpora(seed):
    """A fitted corpus and a foreign one holding tokens the first lacks."""
    rng = random.Random(seed)
    words = [f"w{i}" for i in range(rng.randint(3, 30))]
    own = random_corpus(rng, words[: max(2, len(words) * 2 // 3)])
    foreign = random_corpus(rng, words + ["oov1", "oov2"])
    return rng, own, foreign


@functools.cache
def sms_corpora():
    """A third of the SMS corpus to fit on, and the whole corpus, holding tokens the third lacks."""
    corpus = load_corpus(DATA_DIR / "sms-spam.csv", "csv")
    own = Corpus(corpus.docs[:len(corpus.docs) // 3], "sms-third")
    assert corpus.vocabulary() - own.vocabulary()
    return own, corpus


@pytest.mark.parametrize("seed", [*range(12), "sms"])
def test_tfidf_loops_match_the_mean_of_embed_vectors(seed):
    own, foreign = sms_corpora() if seed == "sms" else corpora(seed)[1:]
    model = tfidf_fit(own)
    old = old_tfidf_fit(own)
    assert list(model.vocabulary.items()) == list(old.vocabulary.items())
    assert list(model.idf.items()) == list(old.idf.items())
    assert model.doc_count == old.doc_count
    for corpus in (own, foreign, Corpus(()), Corpus((Document(()),))):
        assert (list(tfidf_centroid(model, corpus).items())
                == list(old_tfidf_centroid(model, corpus).items()))
        for doc in corpus.docs:
            assert list(tfidf_embed(model, doc).items()) == list(old_tfidf_embed(model, doc).items())


@pytest.mark.parametrize("seed", range(12))
def test_projection_matches_embed_text_and_the_old_coverage(seed):
    _, own, foreign = corpora(seed)
    coloring = color_graph(build_graph(own))
    for corpus in (own, foreign, Corpus(()), Corpus((Document(()),) * 3)):
        result = project_coloring(coloring, corpus)
        old = old_project_coloring(coloring, corpus)
        assert result == old
        assert repr(result.coverage) == repr(old.coverage)
        assert result.vectors == tuple(embed_text(doc, coloring) for doc in corpus.docs)


@pytest.mark.parametrize("seed", range(12))
def test_reduce_and_bow_train_match_their_old_loops(seed):
    rng, own, foreign = corpora(seed)
    core = extract_kcore(build_graph(own))
    for corpus in (own, foreign):
        assert reduce_corpus(corpus, core) == old_reduce_corpus(corpus, core)
    labels = [rng.choice("ab") for _ in own.docs]
    labels[:2] = ["a", "b"]
    for alpha in (1.0, 0.25):
        new, old = bow_train(own, labels, alpha), old_bow_train(own, labels, alpha)
        assert new == old
        assert all(list(new.log_likelihood[c].items()) == list(old.log_likelihood[c].items())
                   for c in new.classes)
