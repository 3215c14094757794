"""Command-line interface — the "easy to use installation and interface"
the abstract promises.

Subcommands::

    bfhrf avg-rf     QUERY.nwk|.nex [-r REFERENCE.nwk|.nex] [--method bfhrf|ds|dsmp|hashrf|mrsrf|shm]
                     [--workers N] [--normalized] [--include-trivial]
                     [--min-split-size K [--max-split-size K]]
    bfhrf matrix     TREES.nwk [--method hashrf|naive|day] [-o OUT.csv]
    bfhrf consensus  TREES.nwk [--consensus-method majority|strict|greedy]
                     [--threshold F]
    bfhrf simulate   --family avian|insect|variable-trees|variable-taxa
                     -o OUT.nwk[.gz] [--trees R] [--taxa N] [--seed S]
                     [--format newick|nexus]
    bfhrf best       QUERY.nwk -r REFERENCE.nwk [--workers N]
    bfhrf annotate   TREES.nwk -r REFERENCE.nwk
    bfhrf stats      TREES.nwk [--bins K]
    bfhrf complete   PARTIAL.nwk -r REFERENCE.nwk
    bfhrf asdsf      RUN1.nwk RUN2.nwk [...] [--min-support F]
    bfhrf supertree  SRC1.nwk SRC2.nwk [...] [--ascii]
    bfhrf topologies TREES.nwk [--credible F]
    bfhrf dist       PAIR.nwk [--metric rf|matching|triplet|quartet|branch-score]
    bfhrf store      build DIR -r REF.nwk [--shards N] [--workers N]
                         [--snapshot-format CODEC] |
                     add DIR TREES.nwk | remove DIR TREES.nwk |
                     query DIR QUERY.nwk [--workers N] |
                     compact DIR [--shards N] |
                     migrate DIR [--codec CODEC] [--shards N] | info DIR
    bfhrf serve      start STORE_DIR [--addr URL ...] [--procs N]
                         [--batch-window S] [--tail-interval S]
                         [--max-frame BYTES] |
                     query ADDR QUERY.nwk [--timeout S] [--retries N] |
                     stats ADDR | stop ADDR
    bfhrf selfcheck  [--seed S] [--rounds K] [--profile quick|deep]
                     [--artifacts DIR]
                     [--inject-fault bfh-count|weighted-total|store-count|shm-count]
                     [--replay ARTIFACT_DIR]

Global flags (accepted before or after the subcommand):

``--trace``
    Record hierarchical spans (wall time + heap peak per pipeline
    phase) and print the span tree to stderr when the command finishes.
``--metrics-out PATH.json``
    Record spans *and* counters/histograms and write the whole run as a
    single :class:`~repro.observability.export.RunReport` JSON document
    — the machine-readable form of the paper's per-phase measurements.
``--quiet``
    Suppress all informational stderr output (results on stdout are
    unaffected).
``--executor {auto,serial,thread,fork,spawn}``
    Parallel backend for every ``--workers`` fan-out in the run
    (overrides the ``REPRO_EXECUTOR`` environment variable; ``auto``
    picks ``fork`` where available, else ``spawn``).  See
    ``docs/runtime.md``.
``--cprofile``
    Run the whole command under :mod:`cProfile`.  Combined with
    ``--trace``/``--metrics-out`` the top-N hotspot table is attached to
    the command's root span (and thus the RunReport); alone, it prints
    to stderr.

All inputs accept Newick or NEXUS, plain or .gz.  Unless ``--quiet`` is
given, every run prints wall time and peak RSS delta on stderr,
mirroring the measurements of the paper's evaluation harness.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro import observability as obs
from repro.core.api import as_trees, average_rf, best_query_tree, consensus, distance_matrix
from repro.core.variants import size_filter_transform
from repro.runtime import BACKENDS, default_method_name, method_names, \
    set_default_executor
from repro.newick.io import read_newick_file, write_newick_file
from repro.newick.writer import write_newick
from repro.observability.export import Reporter, RunReport, render_span_tree
from repro.observability.spans import trace
from repro.trees.taxon import TaxonNamespace
from repro.util.errors import ReproError
from repro.util.memory import rss_peak_mb
from repro.util.timing import Stopwatch, format_seconds

__all__ = ["main", "build_parser"]

# The single stderr channel all commands report through; installed by
# main() so --quiet silences every informational line at once.
_REPORTER = Reporter()


def _info(message: str) -> None:
    _REPORTER.info(message)


def _add_global_flags(parser: argparse.ArgumentParser, *, suppress: bool) -> None:
    """Define --trace / --metrics-out / --quiet / --executor on a parser.

    The flags live on the root parser (usable before the subcommand) and,
    with ``default=SUPPRESS``, on every subparser (usable after it) —
    SUPPRESS keeps a flagless subcommand parse from clobbering the value
    the root parser already set.
    """
    kwargs = {"default": argparse.SUPPRESS} if suppress else {}
    parser.add_argument("--trace", action="store_true",
                        help="record spans and print the span tree to stderr",
                        **kwargs)
    parser.add_argument("--metrics-out", metavar="PATH.json",
                        **({"default": argparse.SUPPRESS} if suppress else {"default": None}),
                        help="write a JSON run report (spans + metrics + env) here")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress informational stderr output", **kwargs)
    parser.add_argument("--executor", choices=["auto", *BACKENDS],
                        **({"default": argparse.SUPPRESS} if suppress else {"default": None}),
                        help="parallel backend for --workers fan-outs "
                             "(default: auto-detect; overrides REPRO_EXECUTOR)")
    parser.add_argument("--cprofile", action="store_true",
                        help="run the command under cProfile; with --trace/"
                             "--metrics-out the hotspot table lands on the "
                             "root span, else it prints to stderr", **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bfhrf",
        description="Scalable and extensible Robinson-Foulds for tree collections (BFHRF).",
    )
    _add_global_flags(parser, suppress=False)
    global_flags = argparse.ArgumentParser(add_help=False)
    _add_global_flags(global_flags, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[global_flags], **kwargs)

    avg = add_parser("avg-rf", help="average RF of query trees vs a reference collection")
    avg.add_argument("query", help="Newick file of query trees Q")
    avg.add_argument("-r", "--reference", help="Newick file of reference trees R (default: Q is R)")
    avg.add_argument("--method", default=None, choices=list(method_names()),
                     help="average-RF method (default: the registry's "
                          "promoted fast path — currently "
                          f"{default_method_name()})")
    avg.add_argument("--workers", type=int, default=1,
                     help="workers for the parallel methods (serial methods ignore it)")
    avg.add_argument("--normalized", action="store_true", help="scale into [0,1] by 2(n-3)")
    avg.add_argument("--include-trivial", action="store_true",
                     help="count pendant splits too (no effect on fixed-taxa RF)")
    avg.add_argument("--min-split-size", type=int, default=None,
                     help="bipartition size filter: smaller side must have >= K taxa")
    avg.add_argument("--max-split-size", type=int, default=None,
                     help="bipartition size filter: smaller side must have <= K taxa")

    mat = add_parser("matrix", help="all-vs-all RF matrix of one collection")
    mat.add_argument("trees", help="Newick file")
    mat.add_argument("--method", default="hashrf", choices=["hashrf", "naive", "day"])
    mat.add_argument("-o", "--output", help="write CSV here instead of stdout")

    con = add_parser("consensus", help="consensus tree of a collection")
    con.add_argument("trees", help="Newick file")
    con.add_argument("--consensus-method", default="majority",
                     choices=["majority", "strict", "greedy"])
    con.add_argument("--threshold", type=float, default=0.5)
    con.add_argument("--ascii", action="store_true",
                     help="render the consensus as ASCII art instead of Newick")

    sim = add_parser("simulate", help="generate a Table-II style dataset")
    sim.add_argument("--family", required=True,
                     choices=["avian", "insect", "variable-trees", "variable-taxa"])
    sim.add_argument("-o", "--output", required=True, help="Newick file to write")
    sim.add_argument("--trees", type=int, default=200, help="number of gene trees r")
    sim.add_argument("--taxa", type=int, default=100, help="taxa n (variable-taxa family)")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--format", default="newick", choices=["newick", "nexus"],
                     help="output format (either may be .gz-compressed via the path)")

    best = add_parser("best", help="query tree minimizing average RF (most parsimonious pick)")
    best.add_argument("query", help="Newick file of candidate trees")
    best.add_argument("-r", "--reference", required=True, help="Newick file of reference trees")
    best.add_argument("--workers", type=int, default=1)

    ann = add_parser("annotate", help="label a tree's internal nodes with split support")
    ann.add_argument("tree", help="Newick file with the tree(s) to annotate")
    ann.add_argument("-r", "--reference", required=True,
                     help="Newick file of the collection providing support")

    stats = add_parser("stats", help="collection diversity report from one BFH scan")
    stats.add_argument("trees", help="Newick file")
    stats.add_argument("--bins", type=int, default=10, help="support-spectrum bins")

    comp = add_parser("complete", help="greedily complete a partial tree to minimize average RF")
    comp.add_argument("tree", help="Newick file with the partial tree (first record used)")
    comp.add_argument("-r", "--reference", required=True,
                      help="Newick file of full-taxa reference trees")

    conv = add_parser("asdsf", help="MCMC convergence: ASDSF between runs")
    conv.add_argument("runs", nargs="+", help="two or more Newick/NEXUS files, one per run")
    conv.add_argument("--min-support", type=float, default=0.1,
                      help="only compare splits reaching this support in some run")

    sup = add_parser("supertree", help="greedy RF supertree from overlapping-taxa sources")
    sup.add_argument("sources", nargs="+", help="Newick/NEXUS files of source trees")
    sup.add_argument("--ascii", action="store_true")

    topo = add_parser("topologies", help="distinct topologies / credible set of a collection")
    topo.add_argument("trees", help="Newick/NEXUS file")
    topo.add_argument("--credible", type=float, default=None,
                      help="report the smallest set reaching this probability mass")

    dist = add_parser("dist", help="two-tree distance under any metric")
    dist.add_argument("trees", help="file whose first two trees are compared")
    dist.add_argument("--metric", default="rf",
                      choices=["rf", "matching", "triplet", "quartet", "branch-score"])

    store = add_parser(
        "store", help="persistent incremental BFH store (see docs/store.md)")
    store_sub = store.add_subparsers(dest="store_verb", required=True)

    def add_store_parser(name: str, **kwargs) -> argparse.ArgumentParser:
        p = store_sub.add_parser(name, parents=[global_flags], **kwargs)
        p.add_argument("store_dir", metavar="STORE_DIR",
                       help="store directory (contains manifest.json)")
        return p

    sb = add_store_parser("build", help="bulk-build a store from a reference collection")
    sb.add_argument("-r", "--reference", required=True,
                    help="Newick/NEXUS file of reference trees")
    sb.add_argument("--shards", type=int, default=1, help="key-range shard count")
    sb.add_argument("--workers", type=int, default=1, help="executor workers for the count")
    sb.add_argument("--include-trivial", action="store_true",
                    help="count pendant splits too")
    sb.add_argument("--weighted", action="store_true",
                    help="also persist per-split branch-length multisets")
    sb.add_argument("--snapshot-format", default=None, metavar="CODEC",
                    help="snapshot write format: a table codec name "
                         "(raw-u64, succinct-v1) or 'v1' for the legacy "
                         "layout (default: the registry's promoted codec)")

    sa = add_store_parser("add", help="absorb reference trees into the journal")
    sa.add_argument("trees", help="Newick/NEXUS file of trees to add")

    sr = add_store_parser("remove", help="un-count previously added trees")
    sr.add_argument("trees", help="Newick/NEXUS file of trees to remove")

    sq = add_store_parser("query", help="average RF of query trees vs the stored collection")
    sq.add_argument("query", help="Newick/NEXUS file of query trees")
    sq.add_argument("--workers", type=int, default=1,
                    help="executor workers for the comparisons")

    sc = add_store_parser("compact", help="fold the journal into fresh shard snapshots")
    sc.add_argument("--shards", type=int, default=None,
                    help="rebalance into this many shards (default: keep)")

    sm = add_store_parser(
        "migrate", help="rewrite every shard in a new snapshot format "
                        "(atomic; v1 stores stay readable until then)")
    sm.add_argument("--codec", default=None, metavar="CODEC",
                    help="target table codec (default: the registry's "
                         "promoted write format, succinct-v1)")
    sm.add_argument("--shards", type=int, default=None,
                    help="rebalance into this many shards (default: keep)")

    add_store_parser("info", help="print store status as JSON")

    serve = add_parser(
        "serve", help="warm-store query daemon over unix/tcp endpoints "
                      "(see docs/serve.md)")
    serve_sub = serve.add_subparsers(dest="serve_verb", required=True)

    vs = serve_sub.add_parser("start", parents=[global_flags],
                              help="run the daemon (blocks until "
                                   "SIGTERM/SIGINT or a stop request)")
    vs.add_argument("store_dir", metavar="STORE_DIR",
                    help="store directory (contains manifest.json)")
    vs.add_argument("--addr", action="append", default=None, metavar="URL",
                    help="listener endpoint (unix:///path/sock or "
                         "tcp://host:port); repeat for multiple listeners "
                         "(default: unix://STORE_DIR/serve.sock)")
    vs.add_argument("--procs", type=int, default=1, metavar="N",
                    help="daemon worker processes sharing the listeners "
                         "(TCP via SO_REUSEPORT, unix via an inherited "
                         "socket); crashed workers are respawned "
                         "(default 1: no supervisor)")
    vs.add_argument("--batch-window", type=float, default=0.0, metavar="S",
                    help="extra seconds to let concurrent queries coalesce "
                         "into one probe (default 0: batch whatever is "
                         "already queued)")
    vs.add_argument("--batch-max-trees", type=int, default=4096,
                    help="stop coalescing a batch past this many trees")
    vs.add_argument("--tail-interval", type=float, default=0.5, metavar="S",
                    help="journal poll period for external store add/compact")
    vs.add_argument("--max-frame", type=int, default=None, metavar="BYTES",
                    help="per-request frame size cap (default 8 MiB)")
    vs.add_argument("--max-inflight", type=int, default=64, metavar="N",
                    help="pipelined requests per connection before the "
                         "daemon sheds with a typed 'overloaded' error")
    vs.add_argument("--queue-max-requests", type=int, default=1024,
                    metavar="N",
                    help="bounded global query queue; a full queue sheds "
                         "instead of buffering")
    vs.add_argument("--queue-max-trees", type=int, default=None, metavar="N",
                    help="backpressure cap on queued trees "
                         "(default: --batch-max-trees)")

    vq = serve_sub.add_parser("query", parents=[global_flags],
                              help="average RF of query trees via a running "
                                   "daemon")
    vq.add_argument("addr", metavar="ADDR", nargs="?", default=None,
                    help="daemon endpoint (unix:///path, tcp://host:port, "
                         "or a bare socket path)")
    vq.add_argument("query", help="Newick/NEXUS file of query trees")
    vq.add_argument("--addr", dest="addr_opt", default=None, metavar="URL",
                    help="daemon endpoint (alternative to the positional)")
    vq.add_argument("--timeout", type=float, default=30.0,
                    help="per-request socket timeout in seconds")
    vq.add_argument("--retries", type=int, default=0,
                    help="connect retries with exponential backoff "
                         "(for racing a daemon that is still starting)")

    for verb, help_text in [("stats", "print the daemon's metrics/store "
                                      "snapshot as JSON"),
                            ("stop", "ask the daemon to drain and exit")]:
        vp = serve_sub.add_parser(verb, parents=[global_flags],
                                  help=help_text)
        vp.add_argument("addr", metavar="ADDR", nargs="?", default=None,
                        help="daemon endpoint (unix:///path, "
                             "tcp://host:port, or a bare socket path)")
        vp.add_argument("--addr", dest="addr_opt", default=None,
                        metavar="URL",
                        help="daemon endpoint (alternative to the "
                             "positional)")
        vp.add_argument("--timeout", type=float, default=30.0,
                        help="per-request socket timeout in seconds")
        vp.add_argument("--retries", type=int, default=0,
                        help="connect retries with exponential backoff")

    check = add_parser(
        "selfcheck",
        help="differential fuzz of every RF implementation against oracles")
    check.add_argument("--seed", type=int, default=42,
                       help="master seed; each round derives its own (default 42)")
    check.add_argument("--rounds", type=int, default=None,
                       help="fuzz rounds (default: profile's, 50 quick / 300 deep)")
    check.add_argument("--profile", default="quick", choices=["quick", "deep"],
                       help="case-size profile (deep = larger trees, more rounds)")
    check.add_argument("--artifacts", default="selfcheck-artifacts", metavar="DIR",
                       help="directory for minimized reproducers on failure")
    check.add_argument("--inject-fault", default=None, metavar="KIND",
                       choices=["bfh-count", "weighted-total", "store-count",
                                "shm-count"],
                       help="deliberately corrupt one implementation "
                            "(proves the harness detects divergence)")
    check.add_argument("--replay", default=None, metavar="ARTIFACT_DIR",
                       help="re-run a saved reproducer instead of fuzzing")

    return parser


def _transform_from_args(args: argparse.Namespace):
    if getattr(args, "min_split_size", None) is None and getattr(args, "max_split_size", None) is None:
        return None
    return size_filter_transform(
        min_size=args.min_split_size if args.min_split_size is not None else 1,
        max_size=args.max_split_size,
    )


def _cmd_avg_rf(args: argparse.Namespace) -> int:
    ns = TaxonNamespace()
    query = as_trees(args.query, ns)
    reference = as_trees(args.reference, ns) if args.reference else None
    values = average_rf(query, reference, method=args.method, n_workers=args.workers,
                        include_trivial=args.include_trivial,
                        transform=_transform_from_args(args),
                        normalized=args.normalized)
    for i, value in enumerate(values):
        print(f"{i}\t{value:.6f}")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    trees = as_trees(args.trees)
    matrix = distance_matrix(trees, method=args.method)
    lines = (",".join(str(int(v)) for v in row) for row in matrix)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line + "\n")
        _info(f"wrote {matrix.shape[0]}x{matrix.shape[1]} matrix to {args.output}")
    else:
        for line in lines:
            print(line)
    return 0


def _cmd_consensus(args: argparse.Namespace) -> int:
    trees = as_trees(args.trees)
    tree = consensus(trees, method=args.consensus_method, threshold=args.threshold)
    if args.ascii:
        from repro.trees.drawing import ascii_tree

        print(ascii_tree(tree))
    else:
        print(write_newick(tree, include_lengths=False))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation import datasets

    kwargs = {} if args.seed is None else {"seed": args.seed}
    if args.family == "avian":
        dataset = datasets.avian_like(args.trees, **kwargs)
    elif args.family == "insect":
        dataset = datasets.insect_like(args.trees, **kwargs)
    elif args.family == "variable-trees":
        dataset = datasets.variable_trees(args.trees, **kwargs)
    else:
        dataset = datasets.variable_taxa(args.taxa, r=args.trees, **kwargs)
    if args.format == "nexus":
        from repro.newick.nexus_writer import write_nexus_file

        count = write_nexus_file(args.output, dataset.trees)
    else:
        count = write_newick_file(args.output, dataset.trees)
    _info(f"wrote {count} trees ({dataset.name}, n={dataset.n_taxa}) to {args.output}")
    return 0


def _cmd_best(args: argparse.Namespace) -> int:
    ns = TaxonNamespace()
    query = as_trees(args.query, ns)
    reference = as_trees(args.reference, ns)
    index, tree, value = best_query_tree(query, reference, n_workers=args.workers)
    print(f"best query tree: index {index}, average RF {value:.6f}")
    print(write_newick(tree, include_lengths=False))
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    from repro.analysis.support import annotate_support
    from repro.hashing.bfh import BipartitionFrequencyHash
    from repro.newick.io import iter_newick_file

    ns = TaxonNamespace()
    bfh = BipartitionFrequencyHash.from_trees(iter_newick_file(args.reference, ns))
    for tree in read_newick_file(args.tree, ns):
        print(write_newick(annotate_support(tree, bfh), include_lengths=False))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.diversity import diversity_report, support_spectrum
    from repro.hashing.bfh import BipartitionFrequencyHash
    from repro.newick.io import iter_newick_file

    ns = TaxonNamespace()
    bfh = BipartitionFrequencyHash.from_trees(iter_newick_file(args.trees, ns))
    report = diversity_report(bfh, len(ns))
    print(f"trees:                       {report.n_trees}")
    print(f"taxa:                        {len(ns)}")
    print(f"unique bipartitions:         {report.unique_splits}")
    print(f"mean pairwise RF:            {report.mean_pairwise_rf:.4f}")
    print(f"  normalized:                {report.normalized_mean_pairwise_rf:.4f}")
    print(f"majority splits (>50%):      {report.majority_splits}")
    print(f"unanimous splits (100%):     {report.unanimous_splits}")
    print(f"mean split support:          {report.mean_support:.4f}")
    spectrum = support_spectrum(bfh, bins=args.bins)
    width = max(spectrum) or 1
    print("support spectrum (low -> high):")
    for i, count in enumerate(spectrum):
        bar = "#" * max(1 if count else 0, round(40 * count / width))
        print(f"  {i / args.bins:4.2f}-{(i + 1) / args.bins:4.2f}  {count:6d}  {bar}")
    return 0


def _cmd_complete(args: argparse.Namespace) -> int:
    from repro.analysis.completion import complete_tree_greedy
    from repro.hashing.bfh import BipartitionFrequencyHash
    from repro.newick.io import iter_newick_file

    ns = TaxonNamespace()
    bfh = BipartitionFrequencyHash.from_trees(iter_newick_file(args.reference, ns))
    partial = read_newick_file(args.tree, ns)[0]
    completed, score = complete_tree_greedy(partial, bfh)
    print(write_newick(completed, include_lengths=False))
    _info(f"average RF of completed tree: {score:.6f}")
    return 0


def _cmd_asdsf(args: argparse.Namespace) -> int:
    from repro.analysis.convergence import asdsf

    ns = TaxonNamespace()
    runs = [as_trees(path, ns) for path in args.runs]
    value = asdsf(runs, min_support=args.min_support)
    for path, run in zip(args.runs, runs):
        _info(f"run {path}: {len(run)} trees")
    print(f"{value:.6f}")
    if value < 0.01:
        _info("runs appear converged (ASDSF < 0.01)")
    return 0


def _cmd_supertree(args: argparse.Namespace) -> int:
    from repro.analysis.supertree import greedy_rf_supertree, total_restricted_rf

    ns = TaxonNamespace()
    sources = []
    for path in args.sources:
        sources.extend(as_trees(path, ns))
    tree = greedy_rf_supertree(sources, ns)
    if args.ascii:
        from repro.trees.drawing import ascii_tree

        print(ascii_tree(tree))
    else:
        print(write_newick(tree, include_lengths=False))
    _info(f"total restricted RF to {len(sources)} sources: "
          f"{total_restricted_rf(tree, sources)}")
    return 0


def _cmd_topologies(args: argparse.Namespace) -> int:
    from repro.analysis.topology import credible_set, topology_frequencies

    trees = as_trees(args.trees)
    r = len(trees)
    if args.credible is not None:
        chosen = credible_set(trees, args.credible)
        _info(f"# {args.credible:.0%} credible set: {len(chosen)} topologies")
        for tree, share in chosen:
            print(f"[{share:.4f}] {write_newick(tree, include_lengths=False)}")
    else:
        freqs = topology_frequencies(trees)
        _info(f"# {len(freqs)} distinct topologies in {r} trees")
        for _key, count, exemplar in freqs:
            print(f"[{count}/{r}] {write_newick(exemplar, include_lengths=False)}")
    return 0


def _cmd_dist(args: argparse.Namespace) -> int:
    from repro.core.api import tree_distance

    trees = as_trees(args.trees)
    if len(trees) < 2:
        print("error: need at least two trees in the file", file=sys.stderr)
        return 2
    value = tree_distance(trees[0], trees[1], metric=args.metric)
    print(f"{value}")
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    import json

    from repro.store import BFHStore, build_store

    verb = args.store_verb
    if verb == "build":
        ns = TaxonNamespace()
        reference = as_trees(args.reference, ns)
        store = build_store(args.store_dir, reference,
                            n_workers=args.workers, n_shards=args.shards,
                            include_trivial=args.include_trivial,
                            weighted=args.weighted,
                            codec=args.snapshot_format)
        _info(f"built store {args.store_dir}: {store.n_trees} trees, "
              f"{len(store)} unique bipartitions, "
              f"{len(store.info()['shards'])} shard(s), "
              f"{store.snapshot_codec} snapshots")
        return 0

    store = BFHStore.open(args.store_dir)
    if store.recovered:
        _info(f"store {args.store_dir}: dropped a torn journal tail "
              "(recovered to the last consistent state)")
    if verb == "add":
        added = store.add_trees(as_trees(args.trees, store.namespace()))
        _info(f"added {added} tree(s); store now holds {store.n_trees} "
              f"({store.journal_records} journal record(s) pending)")
    elif verb == "remove":
        removed = store.remove_trees(as_trees(args.trees, store.namespace()))
        _info(f"removed {removed} tree(s); store now holds {store.n_trees} "
              f"({store.journal_records} journal record(s) pending)")
    elif verb == "query":
        values = store.average_rf(as_trees(args.query, store.namespace()),
                                  n_workers=args.workers)
        for i, value in enumerate(values):
            print(f"{i}\t{value:.6f}")
    elif verb == "compact":
        store.compact(n_shards=args.shards)
        _info(f"compacted to generation {store.generation}: "
              f"{len(store.info()['shards'])} shard(s), journal emptied")
    elif verb == "migrate":
        summary = store.migrate(codec=args.codec, n_shards=args.shards)
        before = summary["snapshot_bytes_before"]
        after = summary["snapshot_bytes_after"]
        ratio = f" ({before / after:.2f}x)" if after else ""
        _info(f"migrated {args.store_dir} from {summary['from_codec']} to "
              f"{summary['to_codec']}: snapshots {before} -> {after} "
              f"bytes{ratio}")
    else:  # info
        print(json.dumps(store.info(), indent=2))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import json
    import os

    from repro.serve import Endpoint, ServeClient, ServeConfig, ServeDaemon
    from repro.serve.protocol import DEFAULT_MAX_FRAME_BYTES
    from repro.util.errors import ServeError

    verb = args.serve_verb
    if verb == "start":
        endpoints = [Endpoint.parse(addr) for addr in (args.addr or [])]
        if not endpoints:
            endpoints = [Endpoint.unix(os.path.join(args.store_dir,
                                                    "serve.sock"))]
        config = ServeConfig(
            endpoints=endpoints,
            batch_window_s=args.batch_window,
            batch_max_trees=args.batch_max_trees,
            tail_interval_s=args.tail_interval,
            max_frame_bytes=args.max_frame or DEFAULT_MAX_FRAME_BYTES,
            max_inflight=args.max_inflight,
            queue_max_requests=args.queue_max_requests,
            queue_max_trees=args.queue_max_trees,
        )
        listeners = ", ".join(str(ep) for ep in config.endpoints)
        stop_addr = str(config.endpoints[0])
        if args.procs > 1:
            from repro.serve import ServeSupervisor

            supervisor = ServeSupervisor(args.store_dir, config,
                                         n_procs=args.procs, log=_info)
            _info(f"serving store {args.store_dir} on {listeners} with "
                  f"{args.procs} worker process(es); SIGTERM/SIGINT or "
                  f"`bfhrf serve stop {stop_addr}` drains and exits")
            supervisor.run()
        else:
            daemon = ServeDaemon(args.store_dir, config)
            _info(f"serving store {args.store_dir} on {listeners}; "
                  f"SIGTERM/SIGINT or `bfhrf serve stop {stop_addr}` "
                  "drains and exits")
            daemon.run()
        _info("daemon drained and exited cleanly")
        return 0

    addr = args.addr if args.addr is not None else args.addr_opt
    if addr is None:
        raise ServeError(f"serve {verb} needs a daemon address: positional "
                         "ADDR or --addr URL")
    client = ServeClient.connect(addr, timeout=args.timeout,
                                 retries=args.retries)
    with client:
        if verb == "query":
            from repro.newick import open_tree_file

            with open_tree_file(args.query, "r") as fh:
                text = fh.read()
            values = client.query(text)
            for i, value in enumerate(values):
                print(f"{i}\t{value:.6f}")
        elif verb == "stats":
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        else:  # stop
            client.shutdown()
            _info(f"asked the daemon on {client.endpoint} to drain and exit")
    return 0


def _cmd_selfcheck(args: argparse.Namespace) -> int:
    from repro.testing import SelfCheck, replay_artifact

    if args.replay is not None:
        failures = replay_artifact(args.replay)
        if failures:
            print(f"replay {args.replay}: still failing", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(f"replay {args.replay}: check passes (bug fixed)")
        return 0

    harness = SelfCheck(args.seed, rounds=args.rounds, profile=args.profile,
                        artifact_dir=args.artifacts, fault=args.inject_fault,
                        log=_info)
    result = harness.run()
    print(result.summary())
    return 0 if result.ok else 1


_COMMANDS = {
    "avg-rf": _cmd_avg_rf,
    "matrix": _cmd_matrix,
    "consensus": _cmd_consensus,
    "simulate": _cmd_simulate,
    "best": _cmd_best,
    "annotate": _cmd_annotate,
    "stats": _cmd_stats,
    "complete": _cmd_complete,
    "asdsf": _cmd_asdsf,
    "supertree": _cmd_supertree,
    "topologies": _cmd_topologies,
    "dist": _cmd_dist,
    "store": _cmd_store,
    "serve": _cmd_serve,
    "selfcheck": _cmd_selfcheck,
}


def main(argv: Sequence[str] | None = None) -> int:
    global _REPORTER
    args = build_parser().parse_args(argv)
    _REPORTER = Reporter(quiet=args.quiet)
    set_default_executor(args.executor)
    observing = args.trace or args.metrics_out is not None
    if observing:
        # Fresh collector + registry per invocation: main() is reentrant
        # (tests and embedding callers invoke it repeatedly in-process).
        obs.reset()
        obs.enable(memory=True)
    rss_before = rss_peak_mb()
    try:
        with Stopwatch() as sw:
            if args.cprofile:
                from repro.observability.profile import profiled

                root = profiled(f"cli.{args.command}",
                                stream=None if observing else sys.stderr)
            else:
                root = trace(f"cli.{args.command}")
            with root:
                status = _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe; not an error.
        sys.stderr.close()
        return 0
    finally:
        # main() is reentrant: don't leak this run's backend choice into
        # the next in-process invocation.
        set_default_executor(None)
        if observing:
            obs.disable()
    if observing:
        report = RunReport.collect(
            f"bfhrf {args.command}",
            extra={"argv": list(argv) if argv is not None else sys.argv[1:]},
        )
        if args.metrics_out:
            try:
                report.write(args.metrics_out)
            except OSError as exc:
                # The analysis already succeeded; don't lose its stdout —
                # print the trace (if asked), report the write failure.
                if args.trace:
                    _REPORTER.always(render_span_tree(report.spans))
                print(f"error: cannot write run report: {exc}", file=sys.stderr)
                obs.reset()
                return 2
            _info(f"wrote run report to {args.metrics_out}")
        if args.trace:
            _REPORTER.always(render_span_tree(report.spans))
        obs.reset()
    _info(
        f"[{args.command}] wall time {format_seconds(sw.elapsed)}, "
        f"peak RSS +{max(0.0, rss_peak_mb() - rss_before):.1f}MB"
    )
    return status


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
