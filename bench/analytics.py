"""Workload ``analytics``: the graph-side library pipeline on an SMS x4 replica.

Set-up writes the replica as a CSV plus the stopword list. Replica 0 is
the SMS Spam Collection as shipped; in replicas 1..3 a seeded 30% of
the words that are not stopwords get the suffix ``r<replica>``
(alphanumeric, because ``_`` is punctuation and would split the token).
One operation is one full pass, from reading the CSV to the similarity
matrix; the walker does no work.
The seed picks one of VARIANTS pinned suffix draws.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
import re
import shutil

from chromagraph import (Corpus, IngestConfig, bow_predict, bow_train, build_graph,
                         color_graph, core_decomposition, cosine, extract_kcore,
                         load_labeled_corpus, project_coloring, read_stopwords,
                         reduce_corpus, similarity_matrix, tfidf_centroid, tfidf_fit)

VARIANTS = 16
REPLICAS = 4
SUFFIX_RATE = 0.3
TEST_FRACTION = 0.2
ROUND = 1
WORD = re.compile(r"[A-Za-z0-9]+")

LAYERS = ("corpus.load", "graph.build", "graph.hash", "coloring.color", "coloring.project",
          "coloring.similarity", "kcore.decompose", "kcore.extract", "kcore.reduce",
          "baselines.train", "baselines.predict", "baselines.tfidf")


def sha(data) -> str:
    if not isinstance(data, bytes):
        data = json.dumps(data, ensure_ascii=False, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def replica_csv(sms_text: str, stopwords: frozenset, variant: int) -> str:
    """The x4 replica of the SMS CSV for one variant, columns spam,text."""
    rows = list(csv.DictReader(io.StringIO(sms_text)))
    rng = random.Random(variant)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["spam", "text"])
    for r in range(REPLICAS):
        def suffix(m, r=r):
            word = m.group()
            if word.lower() in stopwords or rng.random() >= SUFFIX_RATE:
                return word
            return word + f"r{r}"
        for row in rows:
            writer.writerow([row["spam"], row["text"] if r == 0 else WORD.sub(suffix, row["text"])])
    return out.getvalue()


def setup(root, work, seed, tracer):
    work.mkdir(parents=True)
    variant = seed % VARIANTS
    sms = (root / "data" / "sms-spam.csv").read_text(encoding="utf-8")
    shutil.copyfile(root / "data" / "stopwords-en.txt", work / "stopwords.txt")
    stopwords = read_stopwords(work / "stopwords.txt")
    (work / "replica.csv").write_text(replica_csv(sms, stopwords, variant), encoding="utf-8")
    return {"work": work, "variant": variant}


def op(state, i, tracer):
    span = tracer.span
    work = state["work"]
    config = IngestConfig(stopwords=read_stopwords(work / "stopwords.txt"), label_field="spam")
    with span("corpus.load"):
        corpus, labels = load_labeled_corpus(work / "replica.csv", "csv", config)
    with span("graph.build"):
        graph = build_graph(corpus)
    with span("graph.hash"):
        graph_hash = graph.content_hash()
    with span("coloring.color"):
        coloring = color_graph(graph)
    with span("kcore.decompose"):
        decomp = core_decomposition(graph)
    with span("kcore.extract"):
        core = extract_kcore(graph, decomposition=decomp)
    with span("kcore.reduce"):
        reduced = reduce_corpus(corpus, core)

    order = list(range(len(corpus)))
    random.Random(state["variant"]).shuffle(order)
    n_test = round(len(order) * TEST_FRACTION)
    test, train = order[:n_test], order[n_test:]
    accuracy = {}
    for key, docs in (("full", corpus.docs), ("reduced", reduced.docs)):
        with span("baselines.train"):
            clf = bow_train(Corpus(tuple(docs[j] for j in train)), [labels[j] for j in train])
        with span("baselines.predict"):
            predicted = [bow_predict(clf, docs[j]) for j in test]
        accuracy[key] = sum(p == labels[j] for p, j in zip(predicted, test)) / n_test

    per_shard = len(corpus) // REPLICAS
    shards = [Corpus(corpus.docs[r * per_shard:(r + 1) * per_shard], f"replica{r}")
              for r in range(REPLICAS)]
    colored = []
    for shard in shards:
        with span("graph.build"):
            shard_graph = build_graph(shard)
        with span("graph.hash"):
            shard_graph.content_hash()
        with span("coloring.color"):
            colored.append((shard_graph, color_graph(shard_graph)))
    with span("coloring.project"):
        projection = project_coloring(colored[0][1], corpus)
    with span("coloring.similarity"):
        matrix = similarity_matrix(colored)
    with span("baselines.tfidf"):
        model = tfidf_fit(corpus)
        centroids = [tfidf_centroid(model, shard) for shard in shards]
        cos = [[cosine(a, b) for b in centroids] for a in centroids]

    outputs = {"graph_hash": graph_hash, "coloring": coloring, "degeneracy": decomp.degeneracy,
               "retained": core.retained, "accuracy": accuracy, "coverage": projection.coverage,
               "similarity": matrix, "tfidf_cosine": cos}
    info = {
        "corpus.docs": len(corpus),
        "corpus.tokens": corpus.token_count(),
        "graph.nodes": graph.node_count,
        "graph.edges": graph.edge_count,
        "coloring.colors": coloring.num_colors,
        "coloring.coverage": projection.coverage,
        "kcore.degeneracy": decomp.degeneracy,
        "kcore.retained_nodes": len(core.retained),
        "baselines.accuracy_full": accuracy["full"],
        "baselines.accuracy_reduced": accuracy["reduced"],
    }
    return {"items": len(corpus), "outputs": outputs, "info": info}


def digests(state, outcome):
    out = outcome["outputs"]
    return {
        "graph_hash": out["graph_hash"],
        "labels": sha(sorted(out["coloring"].labels.items())),
        "num_colors": out["coloring"].num_colors,
        "degeneracy": out["degeneracy"],
        "retained": sha(sorted(out["retained"])),
        "accuracy_full": repr(out["accuracy"]["full"]),
        "accuracy_reduced": repr(out["accuracy"]["reduced"]),
        "coverage": repr(out["coverage"]),
        "similarity": sha([[repr(x) for x in row] for row in out["similarity"]]),
        "tfidf_cosine": sha([[repr(x) for x in row] for row in out["tfidf_cosine"]]),
    }


def expected(state, i, pins):
    return pins.get(str(state["variant"]))


def layer_metrics(state, tracer, outcomes, ops, setup_times, scale):
    times = tracer.median_self(ops, LAYERS, scale["op"])
    info = next((o["info"] for o in outcomes if o is not None), {})
    return {**{f"{name}_s": t for name, t in times.items()}, **info}
