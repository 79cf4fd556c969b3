import random

import pytest

from repro import mine_correlations
from repro.core.contingency import ContingencyTable
from repro.core.correlation import chi_squared as program_chi_squared
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase
from repro.data.quest import QuestParameters, generate_quest

from perfbench.oracle import (
    BasketMatrix,
    border_digest,
    cells_from_bits,
    check_mine,
    check_topk,
    chi_squared,
    critical_value,
)
from perfbench.workloads import SIGNIFICANCE, MineParams

PARAMS = MineParams(support_count=5, support_fraction=0.3, max_level=3)


@pytest.fixture(scope="module")
def mined():
    rows = list(generate_quest(QuestParameters(n_transactions=600, n_items=25, seed=3)))
    db = BasketDatabase.from_id_baskets(rows, n_items=25)
    result = mine_correlations(
        db,
        significance=SIGNIFICANCE,
        support_count=PARAMS.support_count,
        support_fraction=PARAMS.support_fraction,
        max_level=PARAMS.max_level,
    )
    sig = {r.itemset.items: (r.statistic, dict(r.table.nonzero_counts())) for r in result.rules}
    notsig = [s.items for s in result.supported_uncorrelated]
    assert any(len(itemset) == 3 for itemset in sig), "fixture needs level-3 rules"
    return rows, BasketMatrix(rows, 25), sig, notsig


def _check(matrix, sig, notsig):
    return check_mine(matrix, sig, notsig, PARAMS)


def test_cells_match_brute_force():
    rng = random.Random(1)
    rows = [tuple(sorted(rng.sample(range(9), rng.randrange(0, 6)))) for _ in range(300)]
    matrix = BasketMatrix(rows, 9)
    for itemset in [(0, 1), (2, 7), (1, 3, 8), (0, 2, 4, 6)]:
        for n_rows in (300, 123):
            expected = [0] * (1 << len(itemset))
            for row in rows[:n_rows]:
                expected[sum(1 << j for j, item in enumerate(itemset) if item in row)] += 1
            assert matrix.cells([itemset], n_rows)[0].tolist() == expected


def test_statistic_and_cutoff_are_the_papers():
    assert critical_value(0.95) == pytest.approx(3.841458820694124, rel=1e-12)
    # Example 1 of the paper: tea (bit 0) and coffee (bit 1), chi2 = 3.70.
    cells = [[5, 5, 70, 20]]
    import numpy as np

    assert chi_squared(np.array(cells))[0] == pytest.approx(3.7037, abs=1e-4)
    table = ContingencyTable(Itemset((0, 1)), {0: 5, 1: 5, 2: 70, 3: 20})
    assert chi_squared(np.array(cells))[0] == pytest.approx(program_chi_squared(table), rel=1e-12)


def test_correct_mine_passes(mined):
    _, matrix, sig, notsig = mined
    assert _check(matrix, sig, notsig) == []


def test_corrupted_cell_is_caught(mined):
    _, matrix, sig, notsig = mined
    itemset = sorted(sig)[0]
    statistic, cells = sig[itemset]
    bad = dict(cells)
    cell = sorted(bad)[0]
    bad[cell] += 1
    corrupted = {**sig, itemset: (statistic, bad)}
    problems = _check(matrix, corrupted, notsig)
    assert problems and "cells" in problems[0]


def test_corrupted_border_is_caught(mined):
    _, matrix, sig, notsig = mined
    # Promote a NOTSIG itemset into SIG with its true cells and statistic:
    # it is below the cutoff, and its supersets' minimality breaks too.
    promoted = sorted(notsig)[0]
    cells = matrix.cells([promoted])[0]
    statistic = float(chi_squared(cells[None, :])[0])
    corrupted = {**sig, promoted: (statistic, {i: int(v) for i, v in enumerate(cells) if v})}
    problems = _check(matrix, corrupted, [s for s in notsig if s != promoted])
    assert any(str(promoted) in problem for problem in problems)
    assert border_digest(corrupted, notsig) != border_digest(sig, notsig)


def test_non_minimal_sig_is_caught(mined):
    _, matrix, sig, notsig = mined
    pair = next(itemset for itemset in sorted(sig) if len(itemset) == 2)
    extra = next(i for i in range(25) if i not in pair)
    superset = tuple(sorted(pair + (extra,)))
    cells = matrix.cells([superset])[0]
    statistic = float(chi_squared(cells[None, :])[0])
    corrupted = {**sig, superset: (statistic, {i: int(v) for i, v in enumerate(cells) if v})}
    problems = _check(matrix, corrupted, notsig)
    assert any(str(pair) in problem or str(superset) in problem for problem in problems)


@pytest.mark.parametrize("width", [2, 3])
def test_dropped_notsig_itemset_is_caught(mined, width):
    _, matrix, sig, notsig = mined
    dropped = next(itemset for itemset in sorted(notsig) if len(itemset) == width)
    problems = _check(matrix, sig, [s for s in notsig if s != dropped])
    assert problems == [f"{dropped}: supported candidate missing from SIG and NOTSIG"]


def test_dropped_sig_itemset_is_caught(mined):
    _, matrix, sig, notsig = mined
    dropped = sorted(sig)[-1]
    problems = _check(matrix, {k: v for k, v in sig.items() if k != dropped}, notsig)
    assert problems == [f"{dropped}: supported candidate missing from SIG and NOTSIG"]


def test_itemset_beyond_max_level_is_caught(mined):
    _, matrix, sig, notsig = mined
    wide = next(itemset for itemset in sorted(notsig) if len(itemset) == 3)
    wider = wide + (24,) if wide[-1] < 24 else (0,) + wide
    problems = _check(matrix, sig, list(notsig) + [wider])
    assert problems == [f"{wider}: reported but not a supported candidate"]


def test_topk_check(mined):
    rows, matrix, _, _ = mined
    pairs = [(a, b) for a in range(25) for b in range(a + 1, 25)]
    cells = matrix.cells(pairs)
    stats = chi_squared(cells)
    ranked = sorted(
        ((float(s), pair) for s, pair, c in zip(stats, pairs, cells[:, 3]) if c > 0), reverse=True
    )[:5]
    answer = [(pair, statistic) for statistic, pair in ranked]
    assert check_topk(matrix, len(rows), answer, 5) == []
    wrong = [(answer[0][0], answer[0][1] * 1.01)] + answer[1:]
    assert check_topk(matrix, len(rows), wrong, 5)


def test_wire_cells_decode():
    assert cells_from_bits({"00": 3, "10": 1, "01": 2, "11": 4}, 2) == [3, 1, 2, 4]
