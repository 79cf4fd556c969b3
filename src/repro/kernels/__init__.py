"""Vectorized counting kernels (`repro.kernels`).

The NumPy-accelerated counting layer: a :class:`PackedBitmapIndex`
stores the vertical database as a ``(n_items, ceil(n/64))`` ``uint64``
matrix (built once per database, cached on it like the big-int
bitmaps), and three kernels count contingency cells on it —

* a **batched level-2 sweep** (`repro.kernels.sweep`) that counts all
  candidate pairs of a level in one vectorized row-broadcast AND +
  popcount pass (plus a level-3 twin),
* a **vectorized Möbius kernel** (`repro.kernels.moebius`) that walks
  the subset-support DFS with array intersections and inverts with
  strided folds, and
* a **basket-major scan** (`repro.kernels.scan`) that unpacks wide
  itemsets' rows to ``uint8`` chunks and bins cell ids with
  ``np.unique``.

* a **blocked level-k kernel** (`repro.kernels.blocked`) that batches
  the Möbius walk over the candidate axis — one DFS per level instead
  of one per itemset — in cache-resident chunks, and
* a **telemetry-driven dispatcher** (`repro.kernels.autotune`) that
  picks the kernel per batch from width, shape, and observed timings.

:func:`count_cell_matrix` hands the miner a whole level as one
:class:`CellMatrix` (`repro.kernels.matrix`), the form its columnar
support and chi-squared tests run on.

Every kernel computes exact integer counts, bit-identical to the
pure-Python kernels in :mod:`repro.core.contingency` (the differential
backend-equivalence suite enforces this).  The miner reaches this layer
through ``counting="vectorized"``; the sharded parallel engine composes
with it by running the same batch entry point per shard — either over a
shard-local database or over a zero-copy slice of the shared-memory
packed index (:mod:`repro.parallel.shm`).

When NumPy is missing, :func:`count_cells_batch` and
:func:`count_tables_vectorized` silently fall back to the pure-Python
kernels, so callers never need to gate on :data:`HAS_NUMPY` themselves.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import TYPE_CHECKING

from repro.core import contingency as _contingency
from repro.core.contingency import ContingencyTable, count_cells
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase
from repro.kernels.autotune import DISPATCH_MODES, KernelDispatcher
from repro.kernels.matrix import MATRIX_CHUNK_CELLS, CellMatrix, DeferredTables
from repro.kernels.packed import HAS_NUMPY, PackedBitmapIndex, popcount

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised in minimal installs
    np = None  # type: ignore[assignment]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "CellMatrix",
    "DISPATCH_MODES",
    "DeferredTables",
    "HAS_NUMPY",
    "KernelDispatcher",
    "MATRIX_CHUNK_CELLS",
    "MOEBIUS_MAX_ITEMS",
    "PackedBitmapIndex",
    "count_cells_batch",
    "count_cells_batch_packed",
    "count_cells_vectorized",
    "count_cell_matrix",
    "count_tables_vectorized",
    "popcount",
]

# Möbius-vs-scan cutoff, shared with the pure-Python dispatcher so both
# paths switch kernels at the same width.
MOEBIUS_MAX_ITEMS = _contingency._MAX_DENSE_ITEMS

# Widest itemset whose cell ids fit the scan kernel's int64 arithmetic.
_MAX_SCAN_ITEMS = 63


def count_cells_batch(
    db: BasketDatabase,
    itemsets: Sequence[Itemset],
    metrics: "MetricsRegistry | None" = None,
    dispatcher: KernelDispatcher | None = None,
) -> list[dict[int, int]]:
    """Exact sparse cell counts for a batch of itemsets, vectorized.

    The batch entry point behind ``counting="vectorized"`` and the
    parallel engine's vectorized shards: itemsets are grouped by width
    and each group is handed to the kernel the dispatcher picks —
    closed-form grams for pairs/triples, the blocked level-k kernel or
    the per-itemset Möbius walk for mid widths, the basket-major scan
    for wide ones.  Results align with the input order and are
    bit-identical to :func:`repro.core.contingency.count_cells` per
    itemset.

    ``dispatcher`` (a :class:`KernelDispatcher`) carries the forced
    mode and the learned cost model; ``None`` creates a cold ``auto``
    dispatcher per call, which reduces to the static dispatch table.
    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives one
    ``kernel_dispatch{path=...}`` increment per itemset recording which
    kernel counted it, plus the ``numpy_present`` gauge — the dispatch
    visibility the observability layer surfaces in run reports.
    """
    itemsets = list(itemsets)
    dispatch = _dispatch_recorder(metrics)
    if not HAS_NUMPY:
        dispatch("fallback", len(itemsets))
        return [count_cells(db, itemset) for itemset in itemsets]
    index = db.packed_index()
    results: list[dict[int, int] | None] = [None] * len(itemsets)
    packed_slots: list[int] = []
    packed_items: list[tuple[int, ...]] = []
    for slot, itemset in enumerate(itemsets):
        items = itemset.items
        k = len(items)
        if k == 0:
            raise ValueError("a contingency table needs at least one item")
        if k > _MAX_SCAN_ITEMS:
            # Cell ids overflow int64 past 63 items; the sparse Python
            # scan handles arbitrary widths with big-int cells.
            dispatch("fallback")
            results[slot] = _contingency._cells_by_scan(db, itemset)
        else:
            packed_slots.append(slot)
            packed_items.append(items)
    if packed_items:
        counted = count_cells_batch_packed(
            index, packed_items, dispatcher=dispatcher, record=dispatch
        )
        for slot, cells in zip(packed_slots, counted):
            results[slot] = cells
    return results  # type: ignore[return-value]


def count_cells_batch_packed(
    index: PackedBitmapIndex,
    candidates: Sequence[tuple[int, ...]],
    dispatcher: KernelDispatcher | None = None,
    record=None,
) -> list[dict[int, int]]:
    """Sparse cell counts for sorted item-id tuples over a packed index.

    The database-free core of :func:`count_cells_batch`: everything it
    needs lives in the :class:`PackedBitmapIndex`, so shared-memory pool
    workers call it directly on a zero-copy view of the parent's packed
    matrix.  Candidates are grouped by width, each group counted by the
    kernel ``dispatcher`` chooses (and timed to feed its cost model).
    Widths past the 63-item scan ceiling raise — only a database can
    count those (big-int cell ids); the callers route them beforehand.

    ``record`` is an optional ``(path, n)`` callable receiving one call
    per group, wired to the ``kernel_dispatch`` counters by
    :func:`count_cells_batch`.
    """
    candidates = list(candidates)
    if dispatcher is None:
        dispatcher = KernelDispatcher()
    results: list[dict[int, int] | None] = [None] * len(candidates)
    groups: dict[int, list[int]] = {}
    for slot, items in enumerate(candidates):
        groups.setdefault(len(items), []).append(slot)
    for k in sorted(groups):
        slots = groups[k]
        group = [candidates[slot] for slot in slots]
        path = dispatcher.choose(k, len(group), index.n_words)
        if record is not None:
            record(path, len(group))
        with dispatcher.timed(path, k, len(group), index.n_words):
            counted = _count_group(index, path, group)
        for slot, cells in zip(slots, counted):
            results[slot] = cells
    return results  # type: ignore[return-value]


def _count_group(
    index: PackedBitmapIndex, path: str, group: Sequence[tuple[int, ...]]
) -> list[dict[int, int]]:
    """Sparse cell counts of a same-width group with the kernel ``path``."""
    from repro.kernels.blocked import count_cells_blocked
    from repro.kernels.moebius import count_cells_moebius
    from repro.kernels.scan import count_cells_scan
    from repro.kernels.sweep import count_closed_form_batch

    if path == "unit":
        n = index.n_baskets
        counted = []
        for items in group:
            count = int(index.counts[items[0]])
            cells = {0b1: count, 0b0: n - count}
            counted.append({cell: c for cell, c in cells.items() if c})
        return counted
    if path == "gram":
        return count_closed_form_batch(index, group)
    if path == "blocked":
        return count_cells_blocked(index, group)
    if path == "moebius":
        return [count_cells_moebius(index, items) for items in group]
    return [count_cells_scan(index, items) for items in group]


def _dispatch_recorder(metrics: "MetricsRegistry | None"):
    """A ``record(path, n=1)`` closure onto ``kernel_dispatch`` counters.

    Returns a shared no-op when metrics are absent so the dispatch loop
    stays unconditional.  Also stamps the ``numpy_present`` gauge, the
    run report's "which environment actually ran" signal.
    """
    if metrics is None:
        return _NO_DISPATCH
    metrics.gauge("numpy_present").set(1.0 if HAS_NUMPY else 0.0)

    def record(path: str, n: int = 1) -> None:
        metrics.counter("kernel_dispatch", path=path).inc(n)

    return record


def _NO_DISPATCH(path: str, n: int = 1) -> None:
    return None


def count_cells_vectorized(
    db: BasketDatabase,
    itemset: Itemset,
    metrics: "MetricsRegistry | None" = None,
) -> dict[int, int]:
    """Exact sparse cell counts for one itemset via the vectorized kernels."""
    return count_cells_batch(db, [itemset], metrics=metrics)[0]


def count_cell_matrix(
    db: BasketDatabase,
    itemsets: Sequence[Itemset],
    metrics: "MetricsRegistry | None" = None,
    dispatcher: KernelDispatcher | None = None,
) -> CellMatrix:
    """One same-width batch of candidates as a :class:`CellMatrix`.

    The miner's per-level call under ``counting="vectorized"``: pairs
    and triples are filled straight from the closed-form sweep columns,
    wider itemsets by the kernel the dispatcher picks (the blocked
    kernel writes the matrix itself).  Needs NumPy; ``metrics`` records
    ``kernel_dispatch`` counters exactly as :func:`count_cells_batch`
    does, and a ``dispatcher`` with a forced mode reroutes pairs and
    triples through that kernel too.
    """
    from repro.kernels.blocked import blocked_cell_matrix
    from repro.kernels.sweep import closed_form_cell_matrix

    itemsets = list(itemsets)
    k = len(itemsets[0])
    index = db.packed_index()
    dispatch = _dispatch_recorder(metrics)
    ids = np.array([itemset.items for itemset in itemsets], dtype=np.intp).reshape(-1, k)
    n_rows = ids.shape[0]
    if k in (2, 3) and (dispatcher is None or dispatcher.mode == "auto"):
        dispatch("gram", n_rows)
        cells = closed_form_cell_matrix(index, ids)
    else:
        if dispatcher is None:
            dispatcher = KernelDispatcher()
        path = dispatcher.choose(k, n_rows, index.n_words)
        dispatch(path, n_rows)
        with dispatcher.timed(path, k, n_rows, index.n_words):
            if path == "blocked":
                cells = blocked_cell_matrix(index, ids)
            else:
                cells = np.zeros((n_rows, 1 << k), dtype=np.int64)
                counted = _count_group(index, path, [itemset.items for itemset in itemsets])
                for row, occupied in enumerate(counted):
                    cells[row, list(occupied)] = list(occupied.values())
    marginals = index.counts[ids].astype(np.float64)
    return CellMatrix(itemsets, cells, marginals, db.n_baskets)


def count_tables_vectorized(
    db: BasketDatabase,
    itemsets: Iterable[Itemset],
    metrics: "MetricsRegistry | None" = None,
    dispatcher: KernelDispatcher | None = None,
) -> dict[Itemset, ContingencyTable]:
    """Contingency tables for a batch of itemsets via the vectorized kernels.

    The vectorized analogue of
    :func:`repro.core.contingency.count_tables_single_pass`: itemsets
    are grouped by width, each group up to the dense-table ceiling is
    counted as cell matrices of at most :data:`MATRIX_CHUNK_CELLS` cells
    (:func:`count_cell_matrix`) and read back row by row, wider ones go
    through :func:`count_cells_batch`.
    ``metrics`` and ``dispatcher`` work as in :func:`count_cell_matrix`.
    """
    itemsets = list(itemsets)
    n = db.n_baskets
    if not HAS_NUMPY:
        _dispatch_recorder(metrics)("fallback", len(itemsets))
        return {
            itemset: ContingencyTable.from_database(db, itemset)
            for itemset in itemsets
        }
    groups: dict[int, list[Itemset]] = {}
    for itemset in itemsets:
        groups.setdefault(len(itemset), []).append(itemset)
    tables: dict[Itemset, ContingencyTable] = {}
    for k, group in sorted(groups.items()):
        if k <= MOEBIUS_MAX_ITEMS:
            step = MATRIX_CHUNK_CELLS >> k
            for start in range(0, len(group), step):
                chunk = group[start : start + step]
                matrix = count_cell_matrix(db, chunk, metrics=metrics, dispatcher=dispatcher)
                tables.update(zip(chunk, matrix.tables_of(range(len(chunk)))))
            continue
        index = db.packed_index()
        counted = count_cells_batch(db, group, metrics=metrics, dispatcher=dispatcher)
        for itemset, cells in zip(group, counted):
            marginals = tuple(float(index.counts[item]) for item in itemset.items)
            tables[itemset] = ContingencyTable._from_parts(itemset, cells, marginals, n)
    if len(groups) > 1:  # preserve input order on mixed batches
        return {itemset: tables[itemset] for itemset in itemsets}
    return tables
