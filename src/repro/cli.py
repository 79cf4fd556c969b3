"""Command-line interface: ``python -m repro <command>``.

The commands cover the workflows the paper's experiments chain
together:

* ``mine`` — run the chi2-support miner (Figure 1) over a basket file
  and print the significant itemsets with their evidence;
* ``topk`` — rank the K strongest pair correlations with the FP-tree
  branch-and-bound engine (:mod:`repro.fptree`);
* ``apriori`` — run the support-confidence baseline and print the
  accepted association rules;
* ``generate`` — materialise one of the paper's datasets (census /
  quest / corpus) into a basket file;
* ``describe`` — print summary statistics of a basket file;
* ``serve`` — run the streaming mining service (:mod:`repro.service`):
  a long-lived HTTP server accepting basket appends and answering
  correlation / top-K queries from incrementally maintained state.

Basket files are the plain-text formats of :mod:`repro.data.io`: one
basket per line, whitespace-separated item names (default) or integer
ids (``--numeric``).

``mine`` is fully observable: ``--telemetry`` prints the run report
(Table 5 with timings, cache/kernel/pool rollups) on stderr,
``--metrics-out FILE`` writes the metrics snapshot + run report as
JSON, ``--trace-out FILE`` writes a Chrome trace-event file loadable
in ``chrome://tracing``/Perfetto, and ``--profile`` samples the run
with the wall-clock profiler and prints a span-attributed
collapsed-stack report on stderr.  The global ``--log-level``
configures stdlib logging on stderr for every command.
"""

from __future__ import annotations

import argparse
import logging
import sys
from collections.abc import Sequence

from repro.algorithms.apriori import apriori
from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.algorithms.rulegen import generate_rules
from repro.data.basket import BasketDatabase
from repro.data.io import (
    read_named_baskets,
    read_numeric_baskets,
    write_named_baskets,
    write_numeric_baskets,
)
from repro.measures.cellsupport import CellSupport

__all__ = ["main", "build_parser"]


def _load(path: str, numeric: bool) -> BasketDatabase:
    if numeric:
        return read_numeric_baskets(path)
    return read_named_baskets(path)


def _add_input_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True, help="basket file to read")
    parser.add_argument(
        "--numeric",
        action="store_true",
        help="baskets contain integer item ids rather than names",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Correlation rule mining (Brin, Motwani & Silverstein, SIGMOD 1997)",
    )
    parser.add_argument(
        "--log-level",
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        default=None,
        help="configure stdlib logging on stderr (e.g. the parallel engine's warnings)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    mine = commands.add_parser("mine", help="mine significant correlated itemsets")
    _add_input_arguments(mine)
    mine.add_argument("--significance", type=float, default=0.95)
    mine.add_argument("--support-count", type=float, default=1.0, help="cell count threshold s")
    mine.add_argument("--support-fraction", type=float, default=0.26, help="cell fraction p")
    mine.add_argument("--max-level", type=int, default=None)
    mine.add_argument("--statistic", choices=["chi2", "g"], default="chi2")
    mine.add_argument(
        "--counting",
        choices=["bitmap", "single_pass", "cube", "vectorized", "parallel", "fptree"],
        default="vectorized",
        help=(
            "contingency-table counting backend (vectorized = NumPy batch "
            "sweeps, the default; fptree = candidate-generation-free "
            "prefix-tree sweep)"
        ),
    )
    mine.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for --counting parallel (default: all cores)",
    )
    mine.add_argument(
        "--cache-size",
        type=int,
        default=256,
        help="LRU contingency-table cache capacity for --counting parallel",
    )
    mine.add_argument(
        "--kernel",
        choices=["auto", "blocked", "moebius", "scan", "bitmap"],
        default="auto",
        help=(
            "counting kernel for --counting vectorized/parallel: auto picks "
            "per batch from observed timings; blocked/moebius/scan force one "
            "NumPy kernel; bitmap forces the pure-Python kernels in the "
            "parallel engine (every kernel is bit-identical)"
        ),
    )
    mine.add_argument(
        "--shared-memory",
        choices=["auto", "on", "off"],
        default="auto",
        help=(
            "shard transport for --counting parallel: auto uses zero-copy "
            "shared-memory slices when NumPy allows, on requires them, off "
            "always pickles shards to workers"
        ),
    )
    mine.add_argument("--limit", type=int, default=50, help="print at most this many rules")
    mine.add_argument(
        "--json", action="store_true", help="emit the full result as JSON instead of text"
    )
    mine.add_argument(
        "--telemetry",
        action="store_true",
        help="record spans/metrics and print the run report on stderr",
    )
    mine.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON file (chrome://tracing); implies --telemetry",
    )
    mine.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics snapshot + run report as JSON; implies --telemetry",
    )
    mine.add_argument(
        "--profile",
        action="store_true",
        help=(
            "sample the run with the wall-clock profiler and print a "
            "collapsed-stack report on stderr; implies --telemetry"
        ),
    )

    topk = commands.add_parser(
        "topk", help="the K strongest pair correlations (FP-tree branch-and-bound)"
    )
    _add_input_arguments(topk)
    topk.add_argument("--k", type=int, default=10, help="how many pairs to report")
    topk.add_argument(
        "--min-cooccurrence",
        type=int,
        default=1,
        help="only rank pairs co-occurring at least this often (the search universe)",
    )
    topk.add_argument(
        "--no-prune",
        action="store_true",
        help="disable the branch-and-bound prune (same output, only slower)",
    )
    topk.add_argument(
        "--json", action="store_true", help="emit the ranking as JSON instead of text"
    )
    topk.add_argument(
        "--telemetry",
        action="store_true",
        help="record spans/metrics and print the sweep stats on stderr",
    )
    topk.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a Chrome trace-event JSON file; implies --telemetry",
    )
    topk.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="write the metrics snapshot as JSON; implies --telemetry",
    )

    baseline = commands.add_parser("apriori", help="support-confidence baseline")
    _add_input_arguments(baseline)
    baseline.add_argument("--min-support", type=float, default=0.01)
    baseline.add_argument("--min-confidence", type=float, default=0.5)
    baseline.add_argument("--max-size", type=int, default=None)
    baseline.add_argument("--limit", type=int, default=50)

    generate = commands.add_parser("generate", help="materialise a paper dataset")
    generate.add_argument("dataset", choices=["census", "quest", "corpus"])
    generate.add_argument("--output", required=True)
    generate.add_argument("--seed", type=int, default=None)
    generate.add_argument("--baskets", type=int, default=None, help="quest: transactions")
    generate.add_argument("--items", type=int, default=None, help="quest: item count")

    describe = commands.add_parser("describe", help="summary statistics of a basket file")
    _add_input_arguments(describe)

    negative = commands.add_parser(
        "negative", help="mine negative implications (common items that avoid each other)"
    )
    _add_input_arguments(negative)
    negative.add_argument("--min-item-count", type=int, required=True)
    negative.add_argument("--max-cooccurrence", type=int, required=True)
    negative.add_argument("--significance", type=float, default=0.95)
    negative.add_argument("--limit", type=int, default=50)

    serve = commands.add_parser(
        "serve", help="long-lived mining service: HTTP appends + correlation queries"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8317, help="0 picks a free port")
    serve.add_argument("--significance", type=float, default=0.95)
    serve.add_argument("--support-count", type=float, default=1.0, help="cell count threshold s")
    serve.add_argument("--support-fraction", type=float, default=0.26, help="cell fraction p")
    serve.add_argument("--max-level", type=int, default=None)
    serve.add_argument(
        "--counting",
        choices=["bitmap", "single_pass", "cube", "vectorized", "parallel", "fptree"],
        default="bitmap",
        help="table-counting backend for incremental re-mines",
    )
    serve.add_argument("--workers", type=int, default=None)
    serve.add_argument(
        "--cache-size", type=int, default=256, help="point-query table cache capacity"
    )
    serve.add_argument(
        "--backfill",
        metavar="FILE",
        default=None,
        help="replay this basket file as generation 1 before accepting requests",
    )
    serve.add_argument(
        "--numeric",
        action="store_true",
        help="the --backfill file contains integer item ids rather than names",
    )
    serve.add_argument(
        "--max-body-bytes",
        type=int,
        default=None,
        help="reject request bodies larger than this with 413 (default 4 MiB)",
    )
    serve.add_argument(
        "--telemetry",
        action="store_true",
        help="record per-request spans/metrics, served at GET /metrics",
    )
    serve.add_argument(
        "--flight-dump",
        metavar="FILE",
        default="flight-5xx.json",
        help=(
            "write the flight recorder here when a request dies with an "
            "unhandled 5xx ('' disables the automatic dump)"
        ),
    )

    return parser


def _command_mine(args: argparse.Namespace) -> int:
    telemetry = None
    if args.telemetry or args.trace_out or args.metrics_out or args.profile:
        from repro.obs import Telemetry

        telemetry = Telemetry.create()

    db = _load(args.input, args.numeric)
    miner = ChiSquaredSupportMiner(
        significance=args.significance,
        support=CellSupport(count=args.support_count, fraction=args.support_fraction),
        max_level=args.max_level,
        statistic=args.statistic,
        counting=args.counting,
        workers=args.workers,
        cache_size=args.cache_size,
        kernel=args.kernel,
        shared_memory=args.shared_memory,
        telemetry=telemetry,
    )
    profiler = None
    if args.profile:
        from repro.obs import SamplingProfiler

        profiler = SamplingProfiler(
            tracer=telemetry.tracer if telemetry is not None else None
        )
        profiler.start()
    try:
        result = miner.mine(db)
    finally:
        if profiler is not None:
            profiler.stop()

    if telemetry is not None:
        _export_telemetry(telemetry, result, args)
    if profiler is not None:
        print(profiler.report(limit=40), file=sys.stderr)

    if args.json:
        import json

        from repro.core.report import mining_result_to_dict

        print(json.dumps(mining_result_to_dict(result, db.vocabulary), indent=2))
        return 0

    from repro.core.report import render_level_stats, render_rules

    print(
        f"# {db.n_baskets} baskets, {db.n_items} items; "
        f"significance {args.significance}, support s={args.support_count} p={args.support_fraction}"
    )
    print(render_level_stats(result.level_stats))
    ranked = sorted(result.rules, key=lambda r: -r.statistic)
    print(render_rules(ranked, db.vocabulary, limit=args.limit))
    return 0


def _command_topk(args: argparse.Namespace) -> int:
    from repro.fptree import FPTreePairEngine

    telemetry = None
    if args.telemetry or args.trace_out or args.metrics_out:
        from repro.obs import Telemetry

        telemetry = Telemetry.create()

    db = _load(args.input, args.numeric)
    engine = FPTreePairEngine(db, telemetry=telemetry)
    result = engine.top_k(
        args.k, min_cooccurrence=args.min_cooccurrence, prune=not args.no_prune
    )

    if telemetry is not None:
        import json

        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as handle:
                handle.write(telemetry.tracer.to_chrome_json(indent=2))
                handle.write("\n")
        if args.metrics_out:
            payload = {
                "metrics": telemetry.metrics.snapshot(),
                "sweep": result.stats.to_dict(),
            }
            with open(args.metrics_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        stats = result.stats
        print(
            f"fptree: {stats.nodes} nodes over {stats.header_items} items; "
            f"{stats.subtrees_pruned}/{stats.header_items} subtrees pruned, "
            f"{stats.pairs_pruned}/{stats.pairs_discovered} pair evaluations pruned",
            file=sys.stderr,
        )

    if args.json:
        print(result.serialize(db.vocabulary), end="")
        return 0

    print(
        f"# {db.n_baskets} baskets, {db.n_items} items; "
        f"top {args.k} pair correlations with co-occurrence >= {args.min_cooccurrence}"
    )
    for rank, entry in enumerate(result.entries, start=1):
        names = " ".join(db.vocabulary.decode(entry.itemset))
        print(
            f"{rank:>3}. chi2={entry.statistic:<12.4f} "
            f"cooccurrence={entry.cooccurrence:<6} {{{names}}}"
        )
    if not result.entries:
        print("# no pair meets the co-occurrence floor")
    return 0


def _export_telemetry(telemetry, result, args: argparse.Namespace) -> None:
    """Write the requested trace/metrics files; run report goes to stderr.

    stderr keeps the observability output separable from the mining
    results on stdout, so ``repro mine ... > rules.txt`` still works.
    """
    import json

    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            handle.write(telemetry.tracer.to_chrome_json(indent=2))
            handle.write("\n")
    if args.metrics_out:
        payload = {
            "metrics": telemetry.metrics.snapshot(),
            "run_report": telemetry.run_report(result.level_stats),
        }
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(telemetry.render_summary(result.level_stats), file=sys.stderr)


def _command_apriori(args: argparse.Namespace) -> int:
    db = _load(args.input, args.numeric)
    result = apriori(db, min_support=args.min_support, max_size=args.max_size)
    rules = generate_rules(result, min_confidence=args.min_confidence)
    print(
        f"# {db.n_baskets} baskets, {db.n_items} items; "
        f"{len(result)} frequent itemsets at support >= {args.min_support}"
    )
    shown = sorted(rules, key=lambda r: -r.confidence)[: args.limit]
    for rule in shown:
        print(rule.describe(db.vocabulary))
    remaining = len(rules) - len(shown)
    if remaining > 0:
        print(f"# ... and {remaining} more (raise --limit to see them)")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    if args.dataset == "census":
        from repro.data.census import synthesize_census

        db = synthesize_census()
        write_named_baskets(db, args.output)
    elif args.dataset == "quest":
        from repro.data.quest import QuestParameters, generate_quest

        overrides: dict[str, object] = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.baskets is not None:
            overrides["n_transactions"] = args.baskets
        if args.items is not None:
            overrides["n_items"] = args.items
        db = generate_quest(QuestParameters(**overrides))  # type: ignore[arg-type]
        write_numeric_baskets(db, args.output)
    else:
        from repro.data.corpusgen import NewsCorpusParameters, generate_news_corpus
        from repro.data.text import TextPipeline

        params = (
            NewsCorpusParameters(seed=args.seed)
            if args.seed is not None
            else NewsCorpusParameters()
        )
        db = TextPipeline().run(generate_news_corpus(params))
        write_named_baskets(db, args.output)
    print(f"wrote {db.n_baskets} baskets over {db.n_items} items to {args.output}")
    return 0


def _command_describe(args: argparse.Namespace) -> int:
    db = _load(args.input, args.numeric)
    sizes = sorted(len(basket) for basket in db)
    average = sum(sizes) / len(sizes) if sizes else 0.0
    median = sizes[len(sizes) // 2] if sizes else 0
    print(f"baskets: {db.n_baskets}")
    print(f"items:   {db.n_items}")
    print(f"basket size: avg {average:.2f}, median {median}, max {sizes[-1] if sizes else 0}")
    counts = db.item_counts()
    top = sorted(db.vocabulary.ids(), key=lambda i: -counts[i])[:10]
    print("most frequent items:")
    for item in top:
        print(f"  {db.vocabulary.name_of(item)}: {counts[item]}")
    return 0


def _command_negative(args: argparse.Namespace) -> int:
    from repro.algorithms.negative import mine_negative_implications

    db = _load(args.input, args.numeric)
    results = mine_negative_implications(
        db,
        min_item_count=args.min_item_count,
        max_cooccurrence=args.max_cooccurrence,
        significance=args.significance,
    )
    print(f"# {len(results)} negative implications at significance {args.significance}")
    for implication in results[: args.limit]:
        print(implication.describe(db.vocabulary))
    remaining = len(results) - args.limit
    if remaining > 0:
        print(f"# ... and {remaining} more (raise --limit to see them)")
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    from repro.service import MiningService
    from repro.service.http import DEFAULT_MAX_BODY_BYTES, serve

    telemetry = None
    if args.telemetry:
        from repro.obs import Telemetry

        telemetry = Telemetry.create()

    service = MiningService(
        significance=args.significance,
        support_count=args.support_count,
        support_fraction=args.support_fraction,
        max_level=args.max_level,
        counting=args.counting,
        workers=args.workers,
        cache_size=args.cache_size,
        telemetry=telemetry,
    )
    if args.backfill:
        outcome = service.backfill(args.backfill, numeric=args.numeric)
        print(
            f"backfilled {outcome['appended']} baskets from {args.backfill}: "
            f"{outcome['significant']} significant itemsets at generation "
            f"{outcome['generation']}"
        )
    max_body = args.max_body_bytes if args.max_body_bytes else DEFAULT_MAX_BODY_BYTES
    server = serve(
        service,
        host=args.host,
        port=args.port,
        max_body_bytes=max_body,
        flight_dump_path=args.flight_dump or None,
    )
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port} (counting={args.counting}; ctrl-c to stop)")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        server.server_close()
    return 0


_COMMANDS = {
    "mine": _command_mine,
    "topk": _command_topk,
    "apriori": _command_apriori,
    "generate": _command_generate,
    "describe": _command_describe,
    "negative": _command_negative,
    "serve": _command_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        logging.basicConfig(
            level=getattr(logging, args.log_level),
            stream=sys.stderr,
            format="%(levelname)s %(name)s: %(message)s",
        )
    try:
        return _COMMANDS[args.command](args)
    except (FileNotFoundError, ValueError, KeyError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
