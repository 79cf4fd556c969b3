"""Differential tests of the columnar decision cascade.

The miner decides each level on one cell matrix: cell support and
chi-squared as array passes over every row.  These tests hold that
decision to the scalar one bit for bit — per candidate against
``CellSupport.__call__`` and ``CorrelationTest.statistic`` on dense
(Quest), sparse (parity) and census tables, and per mine against the
table-by-table decision the miner keeps for NumPy-less installs.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

np = pytest.importorskip("numpy")

import repro.algorithms.chi2support as chi2support  # noqa: E402
import repro.kernels as kernels  # noqa: E402
from repro.algorithms.chi2support import ChiSquaredSupportMiner  # noqa: E402
from repro.core.contingency import ContingencyTable, count_tables_single_pass  # noqa: E402
from repro.core.correlation import (  # noqa: E402
    CorrelationResult,
    CorrelationTest,
    chi_squared,
    chi_squared_rows,
)
from repro.core.itemsets import Itemset  # noqa: E402
from repro.core.lattice import apriori_gen  # noqa: E402
from repro.data.basket import BasketDatabase  # noqa: E402
from repro.data.parity import generate_parity_data  # noqa: E402
from repro.data.quest import QuestParameters, generate_quest  # noqa: E402
from repro.kernels import CellMatrix, count_cell_matrix  # noqa: E402
from repro.measures.cellsupport import CellSupport  # noqa: E402
from repro.obs import Telemetry  # noqa: E402
from repro.stats import chi2 as chi2_dist  # noqa: E402


@pytest.fixture(scope="module")
def quest_db():
    return generate_quest(
        QuestParameters(n_transactions=1500, n_items=30, n_patterns=20, seed=11)
    )


@pytest.fixture(scope="module")
def parity_db():
    # A 4-item parity group: every 3-subset is independent, so the mine
    # reaches the group at level 4, whose table leaves the odd-parity
    # cells empty; with the noise items the lattice goes on to level 5.
    return generate_parity_data(6000, [4], noise_items=2, seed=13)


def scalar_cascade(db, support, test, max_level=None):
    """``(level, candidates)`` of Figure 1, decided table by table."""
    miner = ChiSquaredSupportMiner(support=support)
    candidates = miner._initial_candidates(db)
    level = 2
    while candidates and (max_level is None or level <= max_level):
        yield level, candidates
        notsig = []
        for candidate in candidates:
            table = ContingencyTable.from_database(db, candidate)
            if support(table) and test.statistic(table) < test.cutoff:
                notsig.append(candidate)
        candidates = apriori_gen(notsig)
        level += 1


def assert_columnar_equals_scalar(db, support, test, max_level=None):
    """Per-candidate bit identity; returns ``{level: (dense, sparse)}`` row counts."""
    forms = {}
    for level, candidates in scalar_cascade(db, support, test, max_level):
        matrix = count_cell_matrix(db, candidates)
        supported = support.supported_rows(matrix.cells)
        rows = np.flatnonzero(supported)
        statistics = chi_squared_rows(matrix.cells[rows], matrix.marginals[rows], matrix.n)
        tables = [ContingencyTable.from_database(db, c) for c in candidates]
        assert supported.tolist() == [support(table) for table in tables]
        dense = sparse = 0
        for row, statistic in zip(rows.tolist(), statistics.tolist()):
            table = tables[row]
            assert statistic.hex() == test.statistic(table).hex(), candidates[row]
            if table.n_occupied < table.n_cells:
                sparse += 1
            else:
                dense += 1
        forms[level] = (dense, sparse)
    return forms


def signature(result):
    """Everything the columnar rewrite must keep bit-identical."""
    return (
        [
            (
                rule.itemset,
                rule.statistic,
                rule.p_value,
                rule.result.validity,
                rule.result.cutoff,
                rule.result.correlated,
                dict(rule.table.nonzero_counts()),
                rule.table.marginal_probabilities(),
                rule.table.n,
            )
            for rule in result.rules
        ],
        [
            (s.level, s.lattice_itemsets, s.candidates, s.discarded, s.significant, s.not_significant)
            for s in result.level_stats
        ],
        result.supported_uncorrelated,
        result.items_examined,
    )


def scalar_mine(monkeypatch, db, **kwargs):
    """The same mine, decided table by table (the NumPy-less decision)."""
    with monkeypatch.context() as patch:
        patch.setattr(chi2support, "HAS_NUMPY", False)
        return ChiSquaredSupportMiner(**kwargs).mine(db)


class TestPerCandidateIdentity:
    def test_quest_dense_tables(self, quest_db):
        forms = assert_columnar_equals_scalar(
            quest_db, CellSupport(5, 0.3), CorrelationTest(0.95), max_level=3
        )
        assert sum(dense for dense, _ in forms.values()) > 100

    def test_parity_sparse_tables(self, parity_db):
        forms = assert_columnar_equals_scalar(
            parity_db, CellSupport(5, 0.3), CorrelationTest(0.999)
        )
        assert max(forms) >= 4
        assert forms[4][1] > 0  # the parity group's table is sparse

    def test_census_tables(self, census_db):
        forms = assert_columnar_equals_scalar(
            census_db, CellSupport(100, 0.26), CorrelationTest(0.95), max_level=3
        )
        assert sum(dense + sparse for dense, sparse in forms.values()) > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_random_tables_of_every_width(self, seed):
        rng = random.Random(seed)
        density = rng.uniform(0.05, 0.5)
        baskets = [[i for i in range(7) if rng.random() < density] for _ in range(200)]
        db = BasketDatabase.from_id_baskets(baskets, n_items=7)
        occupancy = set()
        for width in range(2, 7):
            candidates = [Itemset(c) for c in combinations(range(7), width)]
            matrix = count_cell_matrix(db, candidates)
            statistics = chi_squared_rows(matrix.cells, matrix.marginals, matrix.n)
            for row, statistic in enumerate(statistics.tolist()):
                table = ContingencyTable.from_database(db, candidates[row])
                assert statistic.hex() == chi_squared(table).hex(), candidates[row]
                occupancy.add(table.n_occupied < table.n_cells)
        assert True in occupancy

    def test_every_backend_feeds_the_same_matrix(self, quest_db):
        candidates = [Itemset(c) for c in combinations(range(12), 3)]
        direct = count_cell_matrix(quest_db, candidates)
        adapted = CellMatrix.from_tables(
            candidates, count_tables_single_pass(quest_db, candidates), quest_db.n_baskets
        )
        assert np.array_equal(direct.cells, adapted.cells)
        assert np.array_equal(direct.marginals, adapted.marginals)
        for row, candidate in enumerate(candidates):
            table = ContingencyTable.from_database(quest_db, candidate)
            rebuilt = direct.table(row)
            assert dict(rebuilt.nonzero_counts()) == dict(table.nonzero_counts())
            assert rebuilt.marginal_probabilities() == table.marginal_probabilities()
            assert chi_squared(rebuilt) == chi_squared(table)


class TestChunkedLevels:
    @pytest.mark.parametrize("counting", ["vectorized", "single_pass"])
    def test_small_chunks_and_wide_levels_mine_identically(self, monkeypatch, parity_db, counting):
        params = dict(significance=0.999, support=CellSupport(5, 0.3), counting=counting)
        reference = ChiSquaredSupportMiner(**params).mine(parity_db)
        assert max(stats.level for stats in reference.level_stats) >= 4
        # 8-cell chunks: levels 2 and 3 split into many row chunks, and
        # level 4 and up (16 cells a row) are decided table by table.
        monkeypatch.setattr(chi2support, "MATRIX_CHUNK_CELLS", 8)
        telemetry = Telemetry.create()
        chunked = ChiSquaredSupportMiner(**params, telemetry=telemetry).mine(parity_db)
        assert signature(chunked) == signature(reference)
        (mine,) = telemetry.tracer.roots
        level_2 = next(span for span in mine.children if span.name == "mine.level")
        counts = [span for span in level_2.children if span.name == "mine.level.count"]
        assert len(counts) == -(-reference.level_stats[0].candidates // 2)


class TestDegenerateTables:
    def test_constant_items_mine_like_the_scalar_decision(self, monkeypatch):
        rng = random.Random(5)
        # Item 0 is in every basket, item 1 in none.
        baskets = [[0] + [i for i in range(2, 7) if rng.random() < 0.4] for _ in range(300)]
        db = BasketDatabase.from_id_baskets(baskets, n_items=7)
        kwargs = dict(support=CellSupport(5, 0.3), level1_pruning=False)
        columnar = ChiSquaredSupportMiner(**kwargs).mine(db)
        assert signature(columnar) == signature(scalar_mine(monkeypatch, db, **kwargs))

    def test_count_on_zero_expectation_raises_like_the_scalar_code(self):
        # Item 1 never occurs, yet the corrupted row claims a basket with it.
        table = ContingencyTable(Itemset([0, 1]), {0b01: 10, 0b00: 10})
        table._counts[0b11] = 1
        with pytest.raises(ZeroDivisionError) as scalar:
            chi_squared(table)
        cells = np.array([[10, 10, 0, 1]], dtype=np.int64)
        with pytest.raises(ZeroDivisionError) as columnar:
            chi_squared_rows(cells, np.array([[10.0, 0.0]]), 20)
        assert str(columnar.value) == str(scalar.value)

    @pytest.mark.parametrize("numpy_decides", [True, False])
    def test_miner_raises_on_a_corrupt_engine_table(self, monkeypatch, numpy_decides):
        db = BasketDatabase.from_id_baskets([[0]] * 10 + [[]] * 10, n_items=2)

        class CorruptEngine:
            def __init__(self, db):
                self.db = db

            def count_tables(self, candidates):
                tables = {c: ContingencyTable.from_database(db, c) for c in candidates}
                tables[Itemset([0, 1])]._counts[0b11] = 1
                return tables

        monkeypatch.setattr(chi2support, "HAS_NUMPY", numpy_decides)
        miner = ChiSquaredSupportMiner(
            support=CellSupport(5, 0.3),
            level1_pruning=False,
            counting="parallel",
            engine=CorruptEngine(db),
        )
        with pytest.raises(ZeroDivisionError, match="zero expectation"):
            miner.mine(db)


class TestScalarStatistics:
    """The G-test and min_expected_cell > 0 keep their per-row statistic."""

    @pytest.mark.parametrize(
        "kwargs", [{"statistic": "g"}, {"min_expected_cell": 1.0}], ids=["g", "min_expected"]
    )
    def test_results_unchanged(self, monkeypatch, quest_db, kwargs):
        kwargs = dict(kwargs, support=CellSupport(5, 0.3), max_level=3)
        columnar = ChiSquaredSupportMiner(**kwargs).mine(quest_db)
        assert columnar.rules
        assert signature(columnar) == signature(scalar_mine(monkeypatch, quest_db, **kwargs))


class TestNumpyAbsentFallback:
    @pytest.mark.parametrize("counting", ["vectorized", "bitmap"])
    def test_fallback_mines_identically(self, monkeypatch, quest_db, counting):
        params = dict(support=CellSupport(5, 0.3), max_level=3, counting=counting)
        reference = ChiSquaredSupportMiner(**params).mine(quest_db)
        telemetry = Telemetry.create()
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "HAS_NUMPY", False)
            patch.setattr(chi2support, "HAS_NUMPY", False)
            fallback = ChiSquaredSupportMiner(**params, telemetry=telemetry).mine(quest_db)
        assert signature(fallback) == signature(reference)
        if counting == "vectorized":
            assert telemetry.metrics.counter_value("kernel_dispatch", path="fallback") > 0


class TestDeferredEvidence:
    def test_lazy_values_equal_eager_ones(self, quest_db):
        test = CorrelationTest(0.95)
        result = ChiSquaredSupportMiner(support=CellSupport(5, 0.3), max_level=3).mine(quest_db)
        assert result.rules
        for rule in result.rules:
            table = ContingencyTable.from_database(quest_db, rule.itemset)
            assert rule._table is None and rule._result is None  # nothing built yet
            assert rule.statistic == test.statistic(table)
            assert dict(rule.table.nonzero_counts()) == dict(table.nonzero_counts())
            assert rule.table.marginal_probabilities() == table.marginal_probabilities()
            assert rule.table is rule.table
            assert rule.p_value == chi2_dist.sf(rule.statistic, test.df)
            assert rule.result.validity == table.validity()
            assert rule.result is rule.result
            eager = CorrelationResult(
                statistic=rule.statistic,
                cutoff=test.cutoff,
                correlated=True,
                p_value=chi2_dist.sf(rule.statistic, test.df),
                validity=table.validity(),
            )
            assert rule.result == eager
            assert rule.result.reliable == eager.reliable
