"""Command-line front end composing the library into pipelines.

Every command writes its outputs atomically (temp file + rename) and
emits a run manifest at <primary output>.manifest.json listing the
resolved options, all written files, the seed, wall time, and the hash
of every file read: a stopword file named in --config too, unless
--stopwords replaces it unread. Deterministic commands (build, color,
kcore, psi, embed, project) are byte-reproducible; generate is
reproducible for a fixed --seed.

Exit codes:
  0  success
  1  unexpected internal error
  2  usage error (bad flags, bad config file)
  3  missing input file or other I/O failure
  4  malformed corpus record
  5  artifact file violates its schema
  6  coloring does not match the graph (hash or algorithm)
  7  parameter invalid for this data (k above degeneracy, degenerate walk)
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gzip
import json
import os
import random
import sys
import time
import zlib
from pathlib import Path

from ._files import (SchemaError, atomic_write_bytes, canonical_json_bytes, parse_json,
                     sha256_file, sha256_hex)
from .baselines import (bow_predict, bow_train, cosine, evaluate_predictions, jaccard,
                        pearson, tfidf_centroid, tfidf_fit)
from .coloring import (ColoringMismatchError, STRATEGIES, _agreement_matrix, _check_pair,
                       color_graph, load_coloring, project_coloring, save_coloring,
                       similarity_matrix, tag_distribution_by_color)
from .corpus import (Corpus, CorpusFormatError, FORMATS, IngestConfig, fields_read, load_corpus,
                     load_labeled_corpus, read_stopwords, read_utf8, split_lines)
from .graph import BigramGraph, build_graph, graph_from_bytes, load_graph
from .kcore import KCoreError, core_decomposition, core_report, extract_kcore, reduce_corpus
from .walker import PROTOCOLS, WalkerConfig, WalkerError, generate

CACHE_ENV = "CHROMAGRAPH_CACHE_DIR"

_CONFIG_KEYS = tuple(field.name for field in dataclasses.fields(IngestConfig))


class UsageError(ValueError):
    """Bad flag combination or bad --config content."""


# The first matching type gives the exit code, so every ValueError
# subclass comes before ValueError itself.
_EXIT_CODES = (
    (UsageError, 2),
    (CorpusFormatError, 4),
    (SchemaError, 5),
    (ColoringMismatchError, 6),
    (KCoreError, 7),
    (WalkerError, 7),
    (OSError, 3),
    (ValueError, 2),
)


def _read_config_file(path) -> dict:
    """The --config object: ``lowercase`` is a bool, every other key a string."""
    try:
        payload = parse_json(read_utf8(path))
    except CorpusFormatError as exc:  # a bad byte: exit 2 like any bad config, not 4
        raise UsageError(f"{path}: config is not valid UTF-8 at line {exc.line}: "
                         f"{exc.__cause__.reason}") from exc
    except ValueError as exc:
        raise UsageError(f"{path}: config is not valid UTF-8 JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    unknown = set(payload) - set(_CONFIG_KEYS)
    if unknown:
        raise UsageError(f"{path}: unknown config keys: {sorted(unknown)}")
    for key, value in payload.items():
        kind = bool if key == "lowercase" else str
        if not isinstance(value, kind):
            raise UsageError(f"{path}: config key {key!r} must be a {kind.__name__}, "
                             f"got {type(value).__name__}")
    return payload


def _ingest(args, labeled: bool = False) -> tuple[IngestConfig, dict, list]:
    """The IngestConfig of defaults, then --config entries, then flags; the manifest's
    ``format`` and ``ingest`` options, whose fields are those a load reads; the files read."""
    values = _read_config_file(args.config) if args.config else {}
    stopwords = args.stopwords or values.get("stopwords")
    if stopwords is not None:
        values["stopwords"] = read_stopwords(stopwords)
    if "punctuation" in values:
        values["punctuation"] = frozenset(values["punctuation"])
    if args.no_lowercase:
        values["lowercase"] = False
    for field in ("text_field", "label_field"):
        if getattr(args, field, None):
            values[field] = getattr(args, field)
    config = IngestConfig(**values)
    ingest = {
        "lowercase": config.lowercase,
        "stopword_count": len(config.stopwords),
        "punctuation": "".join(sorted(config.punctuation)),
        **fields_read(config, args.format, labeled),
    }
    return (config, {"format": args.format, "ingest": ingest},
            [p for p in (args.config, stopwords) if p])


def _write_manifest(args, options: dict, inputs, outputs, t0) -> None:
    manifest = {
        "command": args.command,
        "options": options,
        "inputs": {str(p): sha256_file(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "seed": getattr(args, "seed", None),
        "wall_time_s": round(time.perf_counter() - t0, 6),
    }
    atomic_write_bytes(str(outputs[0]) + ".manifest.json", canonical_json_bytes(manifest))


# -- build ------------------------------------------------------------------

def _cache_key(raw: bytes, format: str, source_id, config: IngestConfig) -> str:
    """Hash of the corpus bytes and the ingest settings a load of ``format`` reads."""
    settings = {
        "format": format,
        "source_id": source_id,
        "lowercase": config.lowercase,
        "stopwords": sorted(config.stopwords),
        "punctuation": sorted(config.punctuation),
        **fields_read(config, format),
    }
    return sha256_hex(raw + json.dumps(settings, sort_keys=True).encode("utf-8"))


def _build_graph_cached(path, format: str, config: IngestConfig,
                        source_id) -> tuple[BigramGraph, bytes, str | None]:
    """The graph, its canonical bytes (serialised at most once) and the cache outcome.

    The outcome is "hit", "miss", or None when no cache directory is set.
    A hit is an entry that decompresses to the canonical bytes of the
    graph it holds; those bytes are the output as they are.
    """
    cache_dir = os.environ.get(CACHE_ENV)
    cache_path = None
    source_id = Path(path).name if source_id is None else source_id  # as load_corpus names it
    if cache_dir:
        key = _cache_key(Path(path).read_bytes(), format, source_id, config)
        cache_path = Path(cache_dir) / f"graph-{key}.json.gz"
        try:
            data = gzip.decompress(cache_path.read_bytes())
            graph = graph_from_bytes(data, str(cache_path))
        except (OSError, EOFError, ValueError, zlib.error):
            pass  # an absent or corrupt entry is a miss: rebuild and rewrite it
        else:
            if sha256_hex(data) == graph.content_hash():
                return graph, data, "hit"
            # a valid entry that is not canonical bytes is a miss too, and is rewritten
    graph = build_graph(load_corpus(path, format, config, source_id))
    data = graph.canonical_bytes()
    if cache_path is None:
        return graph, data, None
    try:
        # level 1 writes the SMS graph 4x as fast as level 6 for an entry a fifth
        # larger; every level decompresses to the same bytes, so any entry reads.
        # A zero timestamp makes two writes of one graph the same bytes.
        atomic_write_bytes(cache_path, gzip.compress(data, compresslevel=1, mtime=0))
    except OSError:
        pass  # an unwritable cache only skips the write; the run still succeeds
    return graph, data, "miss"


def _cmd_build(args):
    config, options, read = _ingest(args)
    graph, data, cache = _build_graph_cached(args.corpus, args.format, config, args.source_id)
    atomic_write_bytes(args.output, data)
    return {
        **options,
        "source_id": graph.source_id,
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "cache": cache,
    }, [args.corpus, *read], [args.output]


# -- color ------------------------------------------------------------------

def _cmd_color(args):
    graph = load_graph(args.graph)
    coloring = color_graph(graph, args.strategy)
    save_coloring(coloring, args.output)
    return {
        "strategy": args.strategy,
        "num_colors": coloring.num_colors,
        "algorithm_id": coloring.algorithm_id,
    }, [args.graph], [args.output]


# -- kcore ------------------------------------------------------------------

def _cmd_kcore(args):
    if args.max == (args.k is not None):
        raise UsageError("pass exactly one of --k N or --max")
    graph = load_graph(args.graph)
    decomp = core_decomposition(graph)
    core = extract_kcore(graph, None if args.max else args.k, decomposition=decomp,
                         largest_component_only=args.largest_component)
    report = core_report(decomp, core)
    atomic_write_bytes(args.output, canonical_json_bytes(report))
    vocab_path = args.vocab_output or str(args.output) + ".vocab.txt"
    retained = report["retained"]  # sorted once, by core_report
    atomic_write_bytes(vocab_path, ("\n".join(retained) + "\n").encode("utf-8")
                       if retained else b"")
    return {
        "k": core.k,
        "max": args.max,
        "largest_component": args.largest_component,
        "degeneracy": decomp.degeneracy,
    }, [args.graph], [args.output, vocab_path]


# -- psi --------------------------------------------------------------------

def _checked_coloring(graph_path, coloring_path):
    """The coloring checked against its graph, and the pair's name.

    A checked coloring's labels are its graph's nodes, so the graph dies
    with this call: ``psi`` holds one graph at a time.
    """
    graph = load_graph(graph_path)
    coloring = load_coloring(coloring_path)
    _check_pair(graph, coloring)
    return coloring, graph.source_id or Path(graph_path).name


def _cmd_psi(args):
    if not args.pair:
        raise UsageError("pass at least one --pair GRAPH COLORING")
    colorings, ids = zip(*(_checked_coloring(*pair) for pair in args.pair))
    matrix = _agreement_matrix(colorings)
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["", *ids])
    for name, row in zip(ids, matrix):
        writer.writerow([name] + [repr(v) for v in row])
    atomic_write_bytes(args.output, buf.getvalue().encode("utf-8"))
    return {"pairs": len(colorings)}, [p for pair in args.pair for p in pair], [args.output]


# -- embed / project --------------------------------------------------------

def _vectors_jsonl(docs, vectors) -> bytes:
    lines = []
    for i, (doc, vec) in enumerate(zip(docs, vectors)):
        lines.append(canonical_json_bytes(
            {"doc": i, "tokens": list(doc.tokens), "values": list(vec.values)}).rstrip(b"\n"))
    return b"\n".join(lines) + (b"\n" if lines else b"")


def _project(args):
    """Write the corpus's vectors; the manifest options, inputs, outputs and the coverage."""
    config, options, read = _ingest(args)
    coloring = load_coloring(args.coloring)
    corpus = load_corpus(args.corpus, args.format, config)
    result = project_coloring(coloring, corpus)
    atomic_write_bytes(args.output, _vectors_jsonl(corpus.docs, result.vectors))
    return {
        **options,
        "documents": len(corpus.docs),
    }, [args.coloring, args.corpus, *read], [args.output], result.coverage


def _cmd_embed(args):
    return _project(args)[:3]


def _cmd_project(args):
    options, inputs, outputs, coverage = _project(args)
    print(f"coverage {coverage:.6f}")
    return {**options, "coverage": coverage}, inputs, outputs


# -- generate ---------------------------------------------------------------

def _cmd_generate(args):
    graph = load_graph(args.graph)
    coloring = load_coloring(args.coloring)
    config = WalkerConfig(
        sentence_len=args.sentence_len,
        protocol=args.protocol,
        beta_alpha=args.beta_alpha,
        beta_beta=args.beta_beta,
        seed=args.seed,
        max_hops=args.max_hops,
        max_retries=args.max_retries,
        append_final_word=not args.drop_final_word,
    )
    sentence = generate(graph, coloring, config)
    payload = {
        "sentence": " ".join(sentence.tokens),
        "tokens": list(sentence.tokens),
        "color_plan": list(sentence.color_plan),
        "segments": [{"source": s.source, "target": s.target,
                      "path": list(s.path), "jump": s.jump} for s in sentence.segments],
        "seed": args.seed,
    }
    atomic_write_bytes(args.output, canonical_json_bytes(payload))
    options = dataclasses.asdict(config)
    del options["seed"]  # the manifest records it at its top level
    return options, [args.graph, args.coloring], [args.output]


# -- compare ----------------------------------------------------------------

def _pair_vector(matrix, n):
    return [matrix[i][j] for i in range(n) for j in range(i + 1, n)]


def _cmd_compare(args):
    if len(args.corpora) < 2:
        raise UsageError("compare needs at least two corpora")
    config, options, read = _ingest(args)
    corpora = [load_corpus(p, args.format, config) for p in args.corpora]
    graphs = [build_graph(c) for c in corpora]
    colorings = [color_graph(g, args.strategy) for g in graphs]
    n = len(corpora)

    chrom = similarity_matrix(list(zip(graphs, colorings)))
    union = Corpus(tuple(d for c in corpora for d in c.docs), "union")
    model = tfidf_fit(union)
    centroids = [tfidf_centroid(model, c) for c in corpora]
    cos = [[cosine(centroids[i], centroids[j]) for j in range(n)] for i in range(n)]
    vocabs = [c.vocabulary() for c in corpora]
    jac = [[jaccard(vocabs[i], vocabs[j]) for j in range(n)] for i in range(n)]

    pairs = [[i, j] for i in range(n) for j in range(i + 1, n)]
    chrom_v = _pair_vector(chrom, n)
    cos_v = _pair_vector(cos, n)
    jac_v = _pair_vector(jac, n)
    correlation = {}
    for name, other in (("chromatic_vs_cosine", cos_v), ("chromatic_vs_jaccard", jac_v)):
        try:
            correlation[name] = pearson(chrom_v, other)
        except ValueError as exc:
            correlation[name] = None
            correlation[name + "_note"] = str(exc)

    report = {
        "corpora": [c.source_id for c in corpora],
        "chromatic_similarity": chrom,
        "cosine_tfidf": cos,
        "jaccard": jac,
        "pairs": pairs,
        "pair_values": {"chromatic_similarity": chrom_v, "cosine_tfidf": cos_v, "jaccard": jac_v},
        "correlation": correlation,
    }
    atomic_write_bytes(args.output, canonical_json_bytes(report))
    return {
        "format": args.format,  # its place, before "strategy": the manifest's key order holds
        "strategy": args.strategy,
        **options,
        "corpora": len(corpora),
    }, [*args.corpora, *read], [args.output]


# -- classify ---------------------------------------------------------------

def _cmd_classify(args):
    if not 0.0 < args.test_fraction < 1.0:
        raise UsageError("--test-fraction must be in (0, 1)")
    config, options, read = _ingest(args, labeled=True)
    corpus, labels = load_labeled_corpus(args.corpus, args.format, config)
    n = len(corpus.docs)
    if n < 4:
        raise UsageError("classify needs at least four labeled documents")

    kcore_info = None
    working = corpus
    if args.kcore_reduce:
        graph = build_graph(corpus)
        decomp = core_decomposition(graph)
        core = extract_kcore(graph, None, decomposition=decomp)
        working = reduce_corpus(corpus, core)
        kcore_info = {
            "degeneracy": decomp.degeneracy,
            "k": core.k,
            "graph_nodes": graph.node_count,
            "core_nodes": core.graph.node_count,
            "core_edges": core.graph.edge_count,
            "components": core.components,
            "retained_fraction": (core.graph.node_count / graph.node_count
                                  if graph.node_count else 0.0),
        }

    order = list(range(n))
    random.Random(args.seed).shuffle(order)
    n_test = max(1, round(n * args.test_fraction))
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    train_corpus = Corpus(tuple(working.docs[i] for i in train_idx), corpus.source_id)
    train_labels = [labels[i] for i in train_idx]
    if len(set(train_labels)) < 2:
        raise UsageError("training split has fewer than two classes; adjust --seed or fraction")

    clf = bow_train(train_corpus, train_labels, args.alpha)
    y_true = [labels[i] for i in test_idx]
    y_pred = [bow_predict(clf, working.docs[i]) for i in test_idx]
    report = evaluate_predictions(y_true, y_pred)
    report.update({
        "train_size": len(train_idx),
        "test_size": len(test_idx),
        "vocabulary_size": len(clf.vocabulary),
        "alpha": args.alpha,
        "kcore": kcore_info,
    })
    atomic_write_bytes(args.output, canonical_json_bytes(report))
    return {
        **options,
        "kcore_reduce": args.kcore_reduce,
        "test_fraction": args.test_fraction,
        "alpha": args.alpha,
    }, [args.corpus, *read], [args.output]


# -- tagdist ----------------------------------------------------------------

def _read_annotations(path) -> dict[str, str]:
    annotations = {}
    for lineno, line in enumerate(split_lines(read_utf8(path)), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0]:
            raise CorpusFormatError("expected 'token<TAB>tag'", str(path), lineno)
        annotations[parts[0]] = parts[1]
    return annotations


def _cmd_tagdist(args):
    coloring = load_coloring(args.coloring)
    annotations = _read_annotations(args.annotations)
    dist = tag_distribution_by_color(coloring, annotations)
    payload = {
        "num_colors": coloring.num_colors,
        "distributions": {str(color): hist for color, hist in dist.items()},
    }
    atomic_write_bytes(args.output, canonical_json_bytes(payload))
    return {"annotated_tokens": len(annotations)}, [args.coloring, args.annotations], [args.output]


# -- parser -----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and only read after that."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", "-o", required=True, help="primary output path")

    ingest = argparse.ArgumentParser(add_help=False)
    ingest.add_argument("--config", help="JSON file with ingest settings")
    ingest.add_argument("--stopwords", help="stopword file, one token per line")
    ingest.add_argument("--no-lowercase", action="store_true", help="keep original case")
    ingest.add_argument("--format", choices=FORMATS, default="plain")
    ingest.add_argument("--text-field", help="JSONL/CSV field holding the text")

    parser = argparse.ArgumentParser(
        prog="chromagraph",
        description="Bi-gram graph corpus analytics: build graphs, color them, and "
                    "derive similarity, reduction, embedding, and generation artifacts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", parents=[common, ingest], help="build a bi-gram graph from a corpus")
    p.add_argument("corpus")
    p.add_argument("--source-id", default=None)
    p.set_defaults(handler=_cmd_build)

    p = sub.add_parser("color", parents=[common], help="color a graph")
    p.add_argument("graph")
    p.add_argument("--strategy", choices=STRATEGIES, default="degree_desc")
    p.set_defaults(handler=_cmd_color)

    p = sub.add_parser("kcore", parents=[common], help="extract a k-core and report it")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--max", action="store_true", help="use the maximal k (degeneracy)")
    p.add_argument("--largest-component", action="store_true")
    p.add_argument("--vocab-output", default=None, help="retained-vocabulary file path")
    p.set_defaults(handler=_cmd_kcore)

    p = sub.add_parser("psi", parents=[common], help="chromatic similarity matrix as CSV")
    p.add_argument("--pair", nargs=2, action="append", metavar=("GRAPH", "COLORING"),
                   help="graph/coloring file pair; repeatable")
    p.set_defaults(handler=_cmd_psi)

    p = sub.add_parser("embed", parents=[common, ingest], help="embed corpus documents as color vectors")
    p.add_argument("coloring")
    p.add_argument("corpus")
    p.set_defaults(handler=_cmd_embed)

    p = sub.add_parser("project", parents=[common, ingest],
                       help="apply a coloring to a foreign corpus, reporting coverage")
    p.add_argument("coloring")
    p.add_argument("corpus")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("generate", parents=[common], help="generate a sentence by color-guided walk")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--sentence-len", type=int, default=8)
    p.add_argument("--protocol", choices=PROTOCOLS, default="min_weight")
    p.add_argument("--beta-alpha", type=float, default=2.0)
    p.add_argument("--beta-beta", type=float, default=5.0)
    p.add_argument("--max-hops", type=int, default=12)
    p.add_argument("--max-retries", type=int, default=8)
    p.add_argument("--drop-final-word", action="store_true",
                   help="do not append the final target word after the walk")
    p.add_argument("--seed", type=int, default=0, help="seed of the color plan and redraws")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("compare", parents=[common, ingest],
                       help="chromatic similarity vs cosine/Jaccard across corpora")
    p.add_argument("corpora", nargs="+")
    p.add_argument("--strategy", choices=STRATEGIES, default="degree_desc")
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("classify", parents=[common, ingest],
                       help="bag-of-words classification with optional k-core vocabulary reduction")
    p.add_argument("corpus")
    p.add_argument("--kcore-reduce", action="store_true")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--label-field", help="JSONL/CSV field holding the label")
    p.add_argument("--seed", type=int, default=0, help="seed of the train/test split")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("tagdist", parents=[common],
                       help="per-color distribution of externally supplied token tags")
    p.add_argument("coloring")
    p.add_argument("annotations", help="TSV file: token<TAB>tag")
    p.set_defaults(handler=_cmd_tagdist)

    return parser


def main(argv=None) -> int:
    """Run one command and write its manifest; map known errors to exit codes.

    Each handler returns its manifest options, every input file it read,
    and its output files, primary first.
    """
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        _write_manifest(args, *args.handler(args), t0)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return 0


def entrypoint() -> None:
    sys.exit(main())
