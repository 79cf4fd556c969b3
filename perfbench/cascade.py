"""Level-by-level replay of the chi-squared-support cascade (Figure 1).

The replay calls the program's public functions in the order the miner
does — seed pairs, count, decide, materialise, join — with a benchmark
span around each layer's batch of calls, so per-layer self times come
from outside the program.  It must reproduce the real mine exactly:
same SIG and NOTSIG sets and the same per-level counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from repro.core.border import Border
from repro.core.contingency import ContingencyTable
from repro.core.correlation import CorrelationResult, CorrelationTest
from repro.core.itemsets import Itemset
from repro.core.lattice import apriori_join
from repro.core.rules import CorrelationRule
from repro.data.basket import BasketDatabase
from repro.hashing.itemset_table import ItemsetTable
from repro.measures.cellsupport import CellSupport, level1_pair_may_have_support
from repro.stats import chi2

from perfbench.spans import SpanRecorder

__all__ = ["Replay", "replay_cascade", "level_counters", "compare_backends", "KERNEL_PATHS"]

# Every path the kernel dispatcher can record (repro.kernels).
KERNEL_PATHS = ("gram", "blocked", "moebius", "scan", "unit", "fallback")


@dataclass
class Replay:
    """What one replay produced, in the shape the mine reports it."""

    sig: set[Itemset] = field(default_factory=set)
    notsig: set[Itemset] = field(default_factory=set)
    levels: list[tuple[int, int, int, int, int, int]] = field(default_factory=list)
    candidates: dict[int, list[Itemset]] = field(default_factory=dict)
    cells: dict[Itemset, dict[int, int]] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)


def level_counters(level_stats) -> list[tuple[int, int, int, int, int, int]]:
    """The mine's ``LevelStats`` as comparable tuples (timings dropped)."""
    return [
        (s.level, s.lattice_itemsets, s.candidates, s.discarded, s.significant, s.not_significant)
        for s in level_stats
    ]


def replay_cascade(
    db: BasketDatabase,
    support: CellSupport,
    test: CorrelationTest,
    max_level: int | None,
    recorder: SpanRecorder,
    keep_cells: bool = False,
) -> Replay:
    """Run the default (bitmap, chi-squared, dict-table) cascade in layers."""
    out = Replay()
    counts = {"pairs_kept": 0, "tables": 0, "tests": 0, "rules": 0, "generated": 0, "kept": 0}
    n = db.n_baskets
    k = db.n_items
    with recorder.span("replay"):
        with recorder.span("seed"):
            item_counts = db.item_counts()
            items = list(db.vocabulary.ids())
            candidates = [
                Itemset((a, b))
                for index, a in enumerate(items)
                for b in items[index + 1 :]
                if level1_pair_may_have_support(item_counts[a], item_counts[b], n, support)
            ]
        counts["pairs_kept"] = len(candidates)
        border = Border()
        level = 2
        while candidates and (max_level is None or level <= max_level):
            out.candidates[level] = candidates
            with recorder.span("count", level=level):
                tables = [ContingencyTable.from_database(db, c) for c in candidates]
            counts["tables"] += len(tables)
            if keep_cells:
                for candidate, table in zip(candidates, tables):
                    out.cells[candidate] = {int(c): int(v) for c, v in table.nonzero_counts().items()}
            with recorder.span("decide.support", level=level):
                supported = [(c, t) for c, t in zip(candidates, tables) if support(t)]
            with recorder.span("decide.chi2", level=level):
                statistics = [test.statistic(t) for _, t in supported]
            counts["tests"] += len(supported)
            cutoff = test.cutoff
            sig = [(c, t, s) for (c, t), s in zip(supported, statistics) if s >= cutoff]
            with recorder.span("materialize.pvalue", level=level):
                p_values = [chi2.sf(s, test.df) for _, _, s in sig]
            with recorder.span("materialize.validity", level=level):
                validities = [t.validity() for _, t, _ in sig]
            with recorder.span("materialize.rule", level=level):
                for (candidate, table, statistic), p_value, validity in zip(sig, p_values, validities):
                    CorrelationRule(
                        itemset=candidate,
                        result=CorrelationResult(
                            statistic=statistic,
                            cutoff=cutoff,
                            correlated=True,
                            p_value=p_value,
                            validity=validity,
                        ),
                        table=table,
                        minimal=True,
                    )
                    border.add_minimal(candidate)
            counts["rules"] += len(sig)
            out.sig.update(c for c, _, _ in sig)
            with recorder.span("join", level=level):
                notsig = ItemsetTable(backend="dict")
                for (candidate, _), statistic in zip(supported, statistics):
                    if statistic < cutoff:
                        notsig.insert(candidate, None)
                following: list[Itemset] = []
                if max_level is None or level < max_level:
                    for candidate in apriori_join(notsig.keys()):
                        counts["generated"] += 1
                        if all(subset in notsig for subset in candidate.immediate_subsets()):
                            following.append(candidate)
            counts["kept"] += len(following)
            out.notsig.update(notsig.keys())
            out.levels.append(
                (level, comb(k, level), len(candidates), len(candidates) - len(supported), len(sig), len(notsig))
            )
            candidates = following
            level += 1
    out.counts = counts
    return out


def _cells_of(table: ContingencyTable) -> dict[int, int]:
    return {int(c): int(v) for c, v in table.nonzero_counts().items()}


def compare_backends(
    db: BasketDatabase, replay: Replay, workers: int, recorder: SpanRecorder
) -> tuple[dict[str, float], list[str]]:
    """Count the replay's exact candidate lists with the other backends.

    The vectorized kernels and the parallel engine (at most ``workers``
    processes) count every level; the FP-tree engine counts level 2,
    its only native level.  Returns per-backend seconds plus
    kernel-dispatch counts, and every cell mismatch against the default
    path's tables (the replay must have kept its cells).
    """
    from repro.fptree import FPTreePairEngine
    from repro.kernels import KernelDispatcher, count_tables_vectorized
    from repro.obs import MetricsRegistry
    from repro.parallel import ParallelCountingEngine

    problems: list[str] = []

    def check(backend: str, tables: dict[Itemset, ContingencyTable], level: int) -> None:
        for candidate in replay.candidates[level]:
            if _cells_of(tables[candidate]) != replay.cells[candidate]:
                problems.append(f"{backend}: cells of {candidate} differ from the default path")

    registry = MetricsRegistry()
    dispatcher = KernelDispatcher(mode="auto", metrics=registry)
    for level, candidates in sorted(replay.candidates.items()):
        with recorder.span("count.vectorized", level=level):
            tables = count_tables_vectorized(db, candidates, metrics=registry, dispatcher=dispatcher)
        check("vectorized", tables, level)

    with recorder.span("count.fptree", level=2):
        engine = FPTreePairEngine(db)
        try:
            tables = engine.count_tables(replay.candidates[2])
        finally:
            engine.close()
    check("fptree", tables, 2)

    counted: dict[int, dict[Itemset, ContingencyTable]] = {}
    with recorder.span("count.parallel_setup"):
        parallel = ParallelCountingEngine(db, workers=workers)
    with parallel:
        for level, candidates in sorted(replay.candidates.items()):
            with recorder.span("count.parallel", level=level):
                counted[level] = parallel.count_tables(candidates)
    for level, tables in sorted(counted.items()):
        check("parallel", tables, level)

    figures = {
        "count.vectorized_s": recorder.total("count.vectorized"),
        "count.fptree_s": recorder.total("count.fptree"),
        "count.parallel_setup_s": recorder.total("count.parallel_setup"),
        "count.parallel_s": recorder.total("count.parallel"),
    }
    counters = registry.snapshot()["counters"]
    for path in KERNEL_PATHS:
        figures[f"kernels.dispatch.{path}"] = float(counters.get(f'kernel_dispatch{{path="{path}"}}', 0))
    return figures, problems
