"""Differential tests for the vectorized counting kernels.

Every kernel must be bit-identical to the pure-Python counting path in
``repro.core.contingency`` — these tests pin that down per kernel
(sweep, Möbius, scan), across the dispatcher's width routing, under
tiny chunk sizes, and through the NumPy-absent fallback.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.core.contingency import ContingencyTable, count_cells
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase

np = pytest.importorskip("numpy")

import repro.kernels as kernels  # noqa: E402
from repro.kernels import (  # noqa: E402
    KernelDispatcher,
    count_cell_matrix,
    count_cells_batch,
    count_cells_vectorized,
    count_tables_vectorized,
)
from repro.kernels.moebius import count_cells_moebius  # noqa: E402
from repro.kernels.scan import count_cells_scan  # noqa: E402
from repro.kernels.sweep import pair_supports  # noqa: E402


def random_db(seed: int, n_items: int, n_baskets: int) -> BasketDatabase:
    rng = random.Random(seed)
    density = rng.uniform(0.1, 0.7)
    baskets = [
        [item for item in range(n_items) if rng.random() < density]
        for _ in range(n_baskets)
    ]
    return BasketDatabase.from_id_baskets(baskets, n_items=n_items)


class TestBatchDispatcher:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 12, 13, 20])
    def test_every_width_matches_pure_python(self, k):
        """Each width exercises a different kernel; all must agree."""
        db = random_db(k, max(k, 8) + 2, 157)
        rng = random.Random(100 + k)
        itemsets = [
            Itemset(rng.sample(range(db.n_items), k)) for _ in range(5)
        ]
        batched = count_cells_batch(db, itemsets)
        for itemset, cells in zip(itemsets, batched):
            assert cells == count_cells(db, itemset), itemset

    def test_mixed_width_batch_aligns_with_input_order(self):
        db = random_db(5, 16, 90)
        itemsets = [
            Itemset([3]),
            Itemset([0, 1]),
            Itemset(range(14)),  # scan kernel
            Itemset([2, 5, 9]),
            Itemset(range(8)),  # Möbius kernel
            Itemset([7, 11]),
        ]
        batched = count_cells_batch(db, itemsets)
        assert len(batched) == len(itemsets)
        for itemset, cells in zip(itemsets, batched):
            assert cells == count_cells(db, itemset), itemset

    def test_wider_than_63_items_falls_back_to_python_scan(self):
        db = random_db(9, 70, 40)
        itemset = Itemset(range(70))
        assert count_cells_vectorized(db, itemset) == count_cells(db, itemset)

    def test_empty_itemset_rejected(self):
        db = random_db(1, 4, 10)
        with pytest.raises(ValueError):
            count_cells_batch(db, [Itemset(())])

    def test_empty_batch(self):
        db = random_db(1, 4, 10)
        assert count_cells_batch(db, []) == []

    def test_empty_database(self):
        db = BasketDatabase.from_id_baskets([], n_items=4)
        itemsets = [Itemset([0]), Itemset([0, 1]), Itemset([0, 1, 2])]
        for itemset, cells in zip(itemsets, count_cells_batch(db, itemsets)):
            assert cells == count_cells(db, itemset), itemset


class TestIndividualKernels:
    def test_moebius_matches_pure_python(self):
        db = random_db(21, 12, 203)
        index = db.packed_index()
        for k in (1, 2, 5, 9, 12):
            itemset = Itemset(range(k))
            assert count_cells_moebius(index, itemset.items) == count_cells(
                db, itemset
            ), k

    def test_scan_matches_pure_python(self):
        db = random_db(22, 20, 203)
        index = db.packed_index()
        for k in (1, 4, 13, 20):
            itemset = Itemset(range(k))
            assert count_cells_scan(index, itemset.items) == count_cells(
                db, itemset
            ), k

    def test_scan_rejects_more_than_63_items(self):
        db = random_db(23, 70, 30)
        with pytest.raises(ValueError):
            count_cells_scan(db.packed_index(), tuple(range(70)))

    def test_gram_and_gather_pair_paths_agree(self):
        """Force both sides of the pair_supports routing heuristic."""
        db = random_db(24, 40, 300)
        index = db.packed_index()
        all_pairs = np.array(list(combinations(range(40), 2)), dtype=np.intp)
        sparse_pairs = all_pairs[:10]
        # d=40 and 4*780 >= 1600: the full square routes through the Gram
        # matmul; ten pairs route through row-gather AND + popcount.
        dense = pair_supports(index, all_pairs)
        gather = pair_supports(index, sparse_pairs)
        for (a, b), support in zip(all_pairs.tolist(), dense.tolist()):
            expected = (db.item_bitmap(a) & db.item_bitmap(b)).bit_count()
            assert support == expected, (a, b)
        assert gather.tolist() == dense[:10].tolist()


class TestChunking:
    """Tiny chunk caps force multi-chunk code paths on small data."""

    def test_sweep_chunked(self, monkeypatch):
        monkeypatch.setattr("repro.kernels.sweep.CHUNK_WORDS", 2)
        db = random_db(31, 10, 400)  # 7 words per row >> 2-word chunks
        itemsets = [Itemset(pair) for pair in combinations(range(10), 2)]
        itemsets += [Itemset(t) for t in combinations(range(6), 3)]
        for itemset, cells in zip(itemsets, count_cells_batch(db, itemsets)):
            assert cells == count_cells(db, itemset), itemset

    def test_cell_matrix_chunked(self, monkeypatch):
        """Pair, triple and blocked cell matrices under forced tiny chunks."""
        db = random_db(34, 10, 400)  # 7 words per row
        groups = [
            [Itemset(combo) for combo in combinations(range(10), width)]
            for width in (2, 3, 4)
        ]

        def matrix_of(group):
            return count_cell_matrix(db, group, dispatcher=KernelDispatcher()).cells

        whole = [matrix_of(group) for group in groups]
        monkeypatch.setattr("repro.kernels.sweep.CHUNK_WORDS", 2)
        monkeypatch.setattr("repro.kernels.blocked.BLOCK_WORDS", 8)
        for group, unchunked in zip(groups, whole):
            chunked = matrix_of(group)
            assert np.array_equal(chunked, unchunked)
            for itemset, row in zip(group, chunked.tolist()):
                cells = {cell: count for cell, count in enumerate(row) if count}
                assert cells == count_cells(db, itemset), itemset

    def test_cell_matrix_forced_kernels(self):
        """Every forced kernel fills the same matrix as the default path."""
        db = random_db(35, 8, 300)
        for width in (2, 3, 4, 5):
            group = [Itemset(combo) for combo in combinations(range(8), width)]
            reference = count_cell_matrix(db, group)
            for mode in ("blocked", "moebius", "scan"):
                forced = count_cell_matrix(db, group, dispatcher=KernelDispatcher(mode=mode))
                assert np.array_equal(forced.cells, reference.cells), (width, mode)
                assert np.array_equal(forced.marginals, reference.marginals)

    def test_gram_chunked(self, monkeypatch):
        monkeypatch.setattr("repro.kernels.sweep._GRAM_CHUNK_WORDS", 1)
        db = random_db(32, 40, 400)
        index = db.packed_index()
        all_pairs = np.array(list(combinations(range(40), 2)), dtype=np.intp)
        for (a, b), support in zip(
            all_pairs.tolist(), pair_supports(index, all_pairs).tolist()
        ):
            expected = (db.item_bitmap(a) & db.item_bitmap(b)).bit_count()
            assert support == expected, (a, b)

    def test_scan_chunked(self, monkeypatch):
        monkeypatch.setattr("repro.kernels.scan.CHUNK_BYTES", 1)
        db = random_db(33, 16, 400)
        itemset = Itemset(range(14))
        assert count_cells_scan(db.packed_index(), itemset.items) == count_cells(
            db, itemset
        )


class TestNumpyAbsentFallback:
    """With HAS_NUMPY forced off, both entry points fall back pure-Python."""

    def test_count_cells_batch_falls_back(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        db = random_db(41, 8, 60)
        itemsets = [Itemset([0, 1]), Itemset([2, 3, 4]), Itemset(range(6))]
        for itemset, cells in zip(itemsets, count_cells_batch(db, itemsets)):
            assert cells == count_cells(db, itemset), itemset

    def test_count_tables_vectorized_falls_back(self, monkeypatch):
        monkeypatch.setattr(kernels, "HAS_NUMPY", False)
        db = random_db(42, 8, 60)
        itemsets = [Itemset([0, 1]), Itemset([2, 3, 4])]
        tables = count_tables_vectorized(db, itemsets)
        for itemset in itemsets:
            reference = ContingencyTable.from_database(db, itemset)
            assert dict(tables[itemset].nonzero_counts()) == dict(
                reference.nonzero_counts()
            )


class TestCountTablesVectorized:
    def test_tables_equal_from_database(self):
        db = random_db(51, 12, 180)
        itemsets = (
            [Itemset(pair) for pair in combinations(range(8), 2)]
            + [Itemset(t) for t in combinations(range(5), 3)]
            + [Itemset([4]), Itemset(range(6)), Itemset(range(11))]
        )
        tables = count_tables_vectorized(db, itemsets)
        assert list(tables) == itemsets  # input order preserved
        for itemset in itemsets:
            reference = ContingencyTable.from_database(db, itemset)
            table = tables[itemset]
            assert dict(table.nonzero_counts()) == dict(
                reference.nonzero_counts()
            ), itemset
            assert table.n == reference.n
            # _from_parts skipped the validating constructor, so the
            # derived quantities must still match exactly.
            for cell in range(1 << len(itemset)):
                assert table.observed(cell) == reference.observed(cell)
                assert table.expected(cell) == reference.expected(cell)

    def test_pairs_only_batch(self):
        db = random_db(52, 6, 120)
        itemsets = [Itemset(pair) for pair in combinations(range(6), 2)]
        tables = count_tables_vectorized(db, itemsets)
        for itemset in itemsets:
            reference = ContingencyTable.from_database(db, itemset)
            assert dict(tables[itemset].nonzero_counts()) == dict(
                reference.nonzero_counts()
            )
