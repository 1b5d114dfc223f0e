"""Workload ``cli``: a fixed in-process ``chromagraph.cli.main`` sequence.

Set-up copies ``data/sms-spam.csv`` and the stopword list into the work
directory and splits the corpus into SHARDS seeded shards, each written
as a CSV plus its graph and coloring files. One operation is the whole
command sequence below, run into an empty output directory with a fresh
``CHROMAGRAPH_CACHE_DIR``, so the first ``build`` misses the cache and
the second hits it. Every byte-reproducible artifact (manifests hold
wall time and the gzip cache holds an mtime, so both are left out) and
the stdout of ``project`` are checked. The seed picks one of VARIANTS
pinned shard splits and classify seeds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import random
import shutil

from chromagraph import (IngestConfig, build_graph, cli, color_graph, load_corpus,
                         read_stopwords, save_coloring, save_graph)

VARIANTS = 16
SHARDS = 4
ROUND = 1
CHECKED = ("graph.json", "graph_cached.json", "coloring.json", "core.json",
           "core.json.vocab.txt", "projected.jsonl", "full.json", "reduced.json", "psi.csv")


def setup(root, work, seed, tracer):
    work.mkdir(parents=True)
    variant = seed % VARIANTS
    shutil.copyfile(root / "data" / "sms-spam.csv", work / "sms.csv")
    shutil.copyfile(root / "data" / "stopwords-en.txt", work / "stopwords.txt")
    with open(work / "sms.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    random.Random(variant).shuffle(rows)
    config = IngestConfig(stopwords=read_stopwords(work / "stopwords.txt"))
    pairs = []
    for s in range(SHARDS):
        path = work / f"shard{s}.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["spam", "text"])
            writer.writerows([row["spam"], row["text"]] for row in rows[s::SHARDS])
        with tracer.span("corpus.load"):
            corpus = load_corpus(path, "csv", config, source_id=f"shard{s}")
        with tracer.span("graph.build"):
            graph = build_graph(corpus)
        with tracer.span("graph.hash"):
            graph.content_hash()
        with tracer.span("coloring.color"):
            coloring = color_graph(graph)
        save_graph(graph, work / f"shard{s}.graph.json")
        save_coloring(coloring, work / f"shard{s}.coloring.json")
        pairs += ["--pair", str(work / f"shard{s}.graph.json"),
                  str(work / f"shard{s}.coloring.json")]
    return {"work": work, "variant": variant, "pairs": pairs}


def commands(state):
    w = state["work"]
    out = w / "seq"
    ingest = ["--format", "csv", "--stopwords", str(w / "stopwords.txt")]
    labeled = [str(w / "sms.csv"), *ingest, "--label-field", "spam",
               "--seed", str(state["variant"])]
    return out, [
        ("build", ["build", str(w / "sms.csv"), *ingest, "--source-id", "sms",
                   "-o", str(out / "graph.json")]),
        ("build_cached", ["build", str(w / "sms.csv"), *ingest, "--source-id", "sms",
                          "-o", str(out / "graph_cached.json")]),
        ("color", ["color", str(out / "graph.json"), "-o", str(out / "coloring.json")]),
        ("kcore", ["kcore", str(out / "graph.json"), "--max", "-o", str(out / "core.json")]),
        ("project", ["project", str(out / "coloring.json"), str(w / "shard0.csv"), *ingest,
                     "-o", str(out / "projected.jsonl")]),
        ("classify", ["classify", *labeled, "-o", str(out / "full.json")]),
        ("classify_kcore", ["classify", *labeled, "--kcore-reduce",
                            "-o", str(out / "reduced.json")]),
        ("psi", ["psi", *state["pairs"], "-o", str(out / "psi.csv")]),
    ]


def _main(argv, stdout):
    try:
        with contextlib.redirect_stdout(stdout):
            return cli.main(argv)
    except SystemExit as exc:  # argparse rejected the flags
        return exc.code


def op(state, i, tracer):
    out, sequence = commands(state)
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    os.environ[cli.CACHE_ENV] = str(out / "cache")
    stdout = io.StringIO()
    codes = {}
    for name, argv in sequence:
        with tracer.span(f"cli.{name}"):
            codes[name] = _main(argv, stdout)
    written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    return {"items": len(sequence), "outputs": {"stdout": stdout.getvalue(), "exit_codes": codes},
            "info": {"cli.bytes_written": written}}


def digests(state, outcome):
    out, _ = commands(state)
    files = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()[:16]
             for name in CHECKED if (out / name).is_file()}
    return {**files, **outcome["outputs"]}


def expected(state, i, pins):
    return pins.get(str(state["variant"]))


def layer_metrics(state, tracer, outcomes, ops, setup_times, scale):
    _, sequence = commands(state)
    names = [f"cli.{name}" for name, _ in sequence]
    times = tracer.median_self(ops, names, scale["op"])
    setup = tracer.median_self([f"setup{i}" for i in range(len(setup_times))],
                               ["corpus.load", "graph.build", "graph.hash", "coloring.color"],
                               scale["setup"])
    info = next((o["info"] for o in outcomes if o is not None), {})
    return {**{f"{n}_s": t for n, t in {**setup, **times}.items()}, **info}
