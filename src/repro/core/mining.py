"""High-level mining API.

The friendly entry points a downstream user starts with: test one
itemset, mine a whole database, or compare the correlation framework
against support-confidence on the same data — the comparison the paper
runs in Examples 1 and 4.

This module also hosts the *incremental* mining layer the streaming
service builds on: :class:`IncrementalMiner` maintains the SIG/NOTSIG
border over an :class:`~repro.data.appendable.AppendableBasketDatabase`
across appends, recounting only what a delta of baskets can have
changed, while staying bit-identical to a cold batch re-mine of the
accumulated database at every generation (the differential property
suite in ``tests/service`` asserts exactly that).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.border import Border
from repro.core.contingency import ContingencyTable, count_tables_single_pass
from repro.core.correlation import CorrelationTest
from repro.core.itemsets import Itemset, ItemVocabulary
from repro.core.rules import AssociationRule, CorrelationRule
from repro.data.appendable import AppendableBasketDatabase, StagedAppend
from repro.data.basket import BasketDatabase
from repro.measures.cellsupport import CellSupport

if TYPE_CHECKING:  # avoid a circular import; algorithms import core
    from repro.algorithms.chi2support import MiningResult
    from repro.obs import Telemetry

__all__ = [
    "correlation_rule",
    "mine_correlations",
    "FrameworkComparison",
    "compare_frameworks",
    "AppendOutcome",
    "IncrementalMiner",
]


def _resolve_itemset(db: BasketDatabase, items: Iterable[int | str]) -> Itemset:
    resolved: list[int] = []
    for item in items:
        if isinstance(item, str):
            resolved.append(db.vocabulary.id_of(item))
        else:
            resolved.append(item)
    return Itemset(resolved)


def correlation_rule(
    db: BasketDatabase,
    items: Iterable[int | str],
    significance: float = 0.95,
) -> CorrelationRule:
    """Test one itemset for correlation and package the evidence.

    ``items`` may mix item ids and names.  ``minimal`` is not checked
    here (a single-itemset query has no subset context); the miner sets
    it for discovered rules.

    >>> db = BasketDatabase.from_baskets(
    ...     [["tea", "coffee"]] * 20 + [["coffee"]] * 70 + [["tea"]] * 5 + [[]] * 5)
    >>> rule = correlation_rule(db, ["tea", "coffee"])
    >>> rule.result.correlated
    False
    """
    itemset = _resolve_itemset(db, items)
    if len(itemset) < 2:
        raise ValueError("correlation needs at least two items")
    table = ContingencyTable.from_database(db, itemset)
    test = CorrelationTest(significance=significance)
    return CorrelationRule(itemset=itemset, result=test(table), table=table, minimal=False)


def mine_correlations(
    db: BasketDatabase,
    significance: float = 0.95,
    support_count: float = 1,
    support_fraction: float = 0.26,
    max_level: int | None = None,
    counting: str = "vectorized",
    workers: int | None = None,
    cache_size: int = 256,
    telemetry: "Telemetry | None" = None,
    **kwargs: object,
) -> "MiningResult":
    """Mine all significant (supported, minimally correlated) itemsets.

    The main entry point; see :class:`ChiSquaredSupportMiner` for the
    advanced knobs reachable through ``kwargs``.  ``counting`` selects
    the table-counting backend (the default NumPy batch-sweep
    ``"vectorized"``, which falls back to pure Python without NumPy,
    ``"bitmap"``, ``"single_pass"``, ``"cube"``, the sharded
    multi-process ``"parallel"``, whose shards themselves run the
    vectorized kernels when NumPy is available, or the
    candidate-generation-free FP-tree sweep ``"fptree"``); ``workers`` and
    ``cache_size`` configure the parallel engine and are ignored by the
    serial backends.

    ``telemetry`` (a :class:`repro.obs.Telemetry`) turns on the run's
    observability: hierarchical spans, mining metrics, and the Table-5
    run report, all reachable afterwards through the returned result's
    ``run_report()`` / ``render_telemetry()`` or the bundle itself.
    The default is the shared no-op bundle, which costs nearly nothing.
    """
    from repro.algorithms.chi2support import ChiSquaredSupportMiner

    miner = ChiSquaredSupportMiner(
        significance=significance,
        support=CellSupport(count=support_count, fraction=support_fraction),
        max_level=max_level,
        counting=counting,
        workers=workers,
        cache_size=cache_size,
        telemetry=telemetry,
        **kwargs,  # type: ignore[arg-type]
    )
    return miner.mine(db)


@dataclass(frozen=True, slots=True)
class FrameworkComparison:
    """Both frameworks' verdicts on one itemset, side by side."""

    correlation: CorrelationRule
    association_rules: tuple[AssociationRule, ...]

    @property
    def chi_squared(self) -> float:
        """The correlation framework's statistic."""
        return self.correlation.statistic

    def accepted_association_rules(
        self, min_support: float, min_confidence: float
    ) -> list[AssociationRule]:
        """The rules the support-confidence framework would report."""
        return [rule for rule in self.association_rules if rule.passes(min_support, min_confidence)]


def compare_frameworks(
    db: BasketDatabase,
    items: Iterable[int | str],
    significance: float = 0.95,
    min_confidence: float = 0.0,
) -> FrameworkComparison:
    """Run both frameworks on one itemset (the Examples 1 and 4 setup).

    Association rules are generated for every antecedent/consequent
    partition of the itemset; filter with
    :meth:`FrameworkComparison.accepted_association_rules`.
    """
    from repro.algorithms.apriori import apriori
    from repro.algorithms.rulegen import rules_for_itemset

    itemset = _resolve_itemset(db, items)
    rule = correlation_rule(db, itemset, significance=significance)
    frequencies = apriori(db, min_support_count=1, max_size=len(itemset))
    if itemset in frequencies:
        association = tuple(rules_for_itemset(frequencies, itemset, min_confidence))
    else:
        association = ()
    return FrameworkComparison(correlation=rule, association_rules=association)


# -- incremental mining --------------------------------------------------------


class _PendingVocabulary:
    """The vocabulary surface of a database mid-append: just the id range."""

    __slots__ = ("_n_items",)

    def __init__(self, n_items: int) -> None:
        self._n_items = n_items

    def __len__(self) -> int:
        return self._n_items

    def ids(self) -> range:
        return range(self._n_items)


class _PendingView:
    """What the accumulated database *will* look like after the commit.

    The level-wise miner reads only aggregate state from its database
    when an engine does the counting — basket count, item count, and the
    per-item occurrence counts (the level-1 data).  All three are
    computed arithmetically from the pre-append database plus the staged
    delta, without mutating anything, so the whole decision cascade runs
    against the post-append world while the real database stays
    untouched and queryable.
    """

    __slots__ = ("n_baskets", "n_items", "vocabulary", "_item_counts")

    def __init__(self, n_baskets: int, n_items: int, item_counts: tuple[int, ...]) -> None:
        self.n_baskets = n_baskets
        self.n_items = n_items
        self.vocabulary = _PendingVocabulary(n_items)
        self._item_counts = item_counts

    def item_counts(self) -> tuple[int, ...]:
        return self._item_counts

    def item_count(self, item: int) -> int:
        return self._item_counts[item]


def _extract_cells(tables: dict[Itemset, ContingencyTable]) -> dict[Itemset, dict[int, int]]:
    """Exact integer cell counts out of a batch of kernel-built tables."""
    return {
        itemset: {int(cell): int(count) for cell, count in table.nonzero_counts().items()}
        for itemset, table in tables.items()
    }


class _IncrementalTableEngine:
    """Serves post-append contingency tables from cumulative cell counts.

    Injected into :class:`~repro.algorithms.chi2support.ChiSquaredSupportMiner`
    through the existing engine hook, so the *decision cascade* (support
    test, statistic, border updates, candidate join) is the batch
    miner's own code — the only thing incremental about the run is where
    the tables come from:

    * itemsets counted at the previous generation reuse their cached
      base cells and add the delta's cells (counted over the small
      delta-only database);
    * never-before-seen candidates are counted over the full accumulated
      base database once, then join the cache.

    All cells are exact integers and the merged table goes through
    :meth:`ContingencyTable.from_cell_counts` — the same canonical-order
    marginal derivation every batch backend uses — so the tables, and
    therefore every decision made on them, are bit-identical to a cold
    batch mine.
    """

    def __init__(
        self,
        view: _PendingView,
        base_db: BasketDatabase | None,
        delta_db: BasketDatabase,
        cached_cells: dict[Itemset, dict[int, int]],
        backend: str,
        workers: int | None,
        telemetry: "Telemetry | None" = None,
    ) -> None:
        self.db = view
        self._base_db = base_db
        self._delta_db = delta_db
        self._cached = cached_cells
        self._backend = backend
        self._workers = workers
        self._telemetry = telemetry
        self.new_cells: dict[Itemset, dict[int, int]] = {}
        self.served = 0
        self.recounted = 0

    def _count(
        self, db: BasketDatabase, itemsets: Sequence[Itemset]
    ) -> dict[Itemset, dict[int, int]]:
        """Count cells with the configured backend (all are bit-identical)."""
        if not itemsets:
            return {}
        backend = self._backend
        if backend == "single_pass":
            return _extract_cells(count_tables_single_pass(db, itemsets))
        if backend == "vectorized":
            from repro.kernels import count_tables_vectorized

            return _extract_cells(count_tables_vectorized(db, itemsets))
        if backend == "parallel":
            from repro.parallel import ParallelCountingEngine

            # Share the append's telemetry bundle so worker-side counters
            # merged by the pool land in this run's registry and /metrics.
            with ParallelCountingEngine(
                db, workers=self._workers, telemetry=self._telemetry
            ) as engine:
                return _extract_cells(engine.count_tables(itemsets))
        if backend == "fptree":
            from repro.fptree import FPTreePairEngine

            return _extract_cells(FPTreePairEngine(db).count_tables(itemsets))
        # bitmap and cube: per-candidate exact counting over the
        # vertical index (a delta-sized datacube would cost more than
        # it answers; the counts are identical either way).
        from repro.core.contingency import count_cells

        return {
            itemset: {int(c): int(v) for c, v in count_cells(db, itemset).items()}
            for itemset in itemsets
        }

    def count_tables(self, candidates: Sequence[Itemset]) -> dict[Itemset, ContingencyTable]:
        fresh = [c for c in candidates if c not in self._cached]
        delta_cells = self._count(self._delta_db, list(candidates))
        base_fresh: dict[Itemset, dict[int, int]] = {}
        if self._base_db is not None:
            base_items = self._base_db.n_items
            # Candidates containing brand-new items cannot be counted
            # over the base database (their ids exceed its index) and
            # don't need to be: a new item occurs in zero base baskets,
            # so the candidate's base cells are exactly the cells of its
            # old-item restriction.  Provisional ids always sort after
            # existing ids, so the restriction occupies the low bit
            # positions and the cell indices map across unchanged.
            inside = [c for c in fresh if not c.items or c.items[-1] < base_items]
            base_fresh = self._count(self._base_db, inside)
            base_n = self._base_db.n_baskets
            for candidate in fresh:
                if candidate in base_fresh:
                    continue
                old_items = tuple(i for i in candidate.items if i < base_items)
                if old_items:
                    from repro.core.contingency import count_cells

                    sub_cells = count_cells(self._base_db, Itemset(old_items))
                    base_fresh[candidate] = {
                        int(c): int(v) for c, v in sub_cells.items()
                    }
                else:
                    base_fresh[candidate] = {0: base_n}
        n = self.db.n_baskets
        tables: dict[Itemset, ContingencyTable] = {}
        for candidate in candidates:
            cached = self._cached.get(candidate)
            if cached is not None:
                base_cells = cached
                self.served += 1
            else:
                base_cells = base_fresh.get(candidate, {})
                self.recounted += 1
            merged = dict(base_cells)
            for cell, count in delta_cells.get(candidate, {}).items():
                merged[cell] = merged.get(cell, 0) + count
            self.new_cells[candidate] = merged
            tables[candidate] = ContingencyTable.from_cell_counts(candidate, merged, n)
        return tables


@dataclass(slots=True)
class AppendOutcome:
    """What one committed append changed.

    ``promoted``/``demoted`` are the border delta: itemsets that entered
    or left the SIG border at this generation.  ``tables_served`` /
    ``tables_recounted`` measure the incremental win — candidates whose
    base cells came from the cumulative cache versus a fresh count over
    the accumulated database.  ``result`` is the full post-append mining
    result (``None`` only while the database is still empty).
    """

    generation: int
    n_appended: int
    n_baskets: int
    n_items: int
    new_items: tuple[str, ...]
    touched_items: frozenset[int]
    promoted: list[Itemset] = field(default_factory=list)
    demoted: list[Itemset] = field(default_factory=list)
    tables_served: int = 0
    tables_recounted: int = 0
    hypotheses_tested: int = 0
    result: "MiningResult | None" = None


class IncrementalMiner:
    """Maintains mining state over an append-only database.

    Each :meth:`append` stages the delta, re-runs the Figure 1 decision
    cascade against a *pending view* of the grown database (serving
    tables incrementally — see :class:`_IncrementalTableEngine`), and
    only then commits the mutation.  A backend failure mid-append
    therefore leaves the previous generation fully intact and
    queryable.

    The maintained invariant, enforced by the differential property
    suite: after every append, :attr:`result` is bit-identical to
    ``mine_correlations`` run cold on the accumulated database with the
    same parameters and backend.

    >>> miner = IncrementalMiner(support_count=2, support_fraction=0.3)
    >>> outcome = miner.append([["tea", "coffee"]] * 45 + [["tea"]] * 5
    ...                        + [["coffee"]] * 25 + [[]] * 25)
    >>> [miner.db.vocabulary.decode(i) for i in outcome.promoted]
    [('tea', 'coffee')]
    >>> miner.append([["tea"], ["coffee", "milk"]]).generation
    2
    """

    def __init__(
        self,
        significance: float = 0.95,
        support_count: float = 1,
        support_fraction: float = 0.26,
        max_level: int | None = None,
        counting: str = "bitmap",
        workers: int | None = None,
        db: AppendableBasketDatabase | None = None,
        telemetry_factory: "Callable[[], Telemetry] | None" = None,
    ) -> None:
        from repro.algorithms.chi2support import ChiSquaredSupportMiner

        # Delegate backend-name validation to the canonical check so the
        # accepted set can never drift from the batch miner's.
        ChiSquaredSupportMiner(counting=counting)
        self.significance = significance
        self.support = CellSupport(count=support_count, fraction=support_fraction)
        self.max_level = max_level
        self.counting = counting
        self.workers = workers
        self.db = db if db is not None else AppendableBasketDatabase.empty()
        self._telemetry_factory = telemetry_factory
        self._cells: dict[Itemset, dict[int, int]] = {}
        self._result: "MiningResult | None" = None
        self._cumulative_tests = 0
        self._delta_vocab = ItemVocabulary()

    @property
    def generation(self) -> int:
        """The database generation (number of committed appends)."""
        return self.db.generation

    @property
    def result(self) -> "MiningResult | None":
        """The current mining result; ``None`` until data arrives."""
        return self._result

    @property
    def cumulative_tests(self) -> int:
        """Chi-squared evaluations performed across all generations."""
        return self._cumulative_tests

    @property
    def border(self) -> Border:
        """The current SIG border (empty before any data)."""
        return self._result.border if self._result is not None else Border()

    def _telemetry(self) -> "Telemetry":
        if self._telemetry_factory is not None:
            return self._telemetry_factory()
        from repro.obs import NULL_TELEMETRY

        return NULL_TELEMETRY

    def _delta_database(self, staged: StagedAppend) -> BasketDatabase:
        """The delta as a standalone database over the post-append id space."""
        while len(self._delta_vocab) < staged.new_k:
            self._delta_vocab.add(f"item{len(self._delta_vocab)}")
        return BasketDatabase(list(staged.baskets), self._delta_vocab)

    def append(
        self, baskets: Iterable[Iterable[str]] | Iterable[Iterable[int]], numeric: bool = False
    ) -> AppendOutcome:
        """Append baskets, update the border, and report what changed.

        Phase A (fallible, zero mutation): stage the delta, compute the
        pending aggregates, and run the full decision cascade with
        tables served incrementally.  Phase B (infallible): commit the
        staged delta and swap in the new cumulative state.  Any
        exception during phase A leaves the previous generation exactly
        as it was.
        """
        staged = self.db.stage_ids(baskets) if numeric else self.db.stage_named(baskets)  # type: ignore[arg-type]
        old_border = self.border
        if staged.n_new_baskets == 0:
            # Nothing can change: no baskets means no new items either.
            generation = self.db.commit(staged)
            return AppendOutcome(
                generation=generation,
                n_appended=0,
                n_baskets=self.db.n_baskets,
                n_items=self.db.n_items,
                new_items=(),
                touched_items=frozenset(),
                result=self._result,
            )

        # -- phase A: everything that can fail, against immutable state --
        new_n = staged.base_baskets + staged.n_new_baskets
        new_k = staged.new_k
        counts = list(self.db.item_counts()) + [0] * len(staged.new_names)
        for basket in staged.baskets:
            for item in basket:
                counts[item] += 1
        view = _PendingView(new_n, new_k, tuple(counts))
        telemetry = self._telemetry()
        engine = _IncrementalTableEngine(
            view,
            self.db if self.db.n_baskets else None,
            self._delta_database(staged),
            self._cells,
            self.counting,
            self.workers,
            telemetry=telemetry,
        )
        from repro.algorithms.chi2support import ChiSquaredSupportMiner

        miner = ChiSquaredSupportMiner(
            significance=self.significance,
            support=self.support,
            max_level=self.max_level,
            counting="parallel",
            engine=engine,
            telemetry=telemetry,
        )
        result = miner.mine(view)  # type: ignore[arg-type]

        # -- phase B: the infallible commit --
        generation = self.db.commit(staged)
        self._cells = engine.new_cells
        self._result = result
        promoted, demoted = result.border.diff(old_border)
        hypotheses = sum(
            stats.candidates - stats.discarded for stats in result.level_stats
        )
        self._cumulative_tests += hypotheses
        return AppendOutcome(
            generation=generation,
            n_appended=staged.n_new_baskets,
            n_baskets=self.db.n_baskets,
            n_items=self.db.n_items,
            new_items=staged.new_names,
            touched_items=staged.touched_items,
            promoted=promoted,
            demoted=demoted,
            tables_served=engine.served,
            tables_recounted=engine.recounted,
            hypotheses_tested=hypotheses,
            result=result,
        )
