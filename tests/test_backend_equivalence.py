"""Differential backend-equivalence harness.

The miner exposes six counting backends (``bitmap``, ``single_pass``,
``cube``, ``vectorized``, ``parallel``, ``fptree``).  All six implement
the *same* Figure 1 algorithm and feed the same columnar decision, so
on any database they must produce identical ``SIG`` borders, rule
order, level stats, and supported-uncorrelated sets
— and every contingency table any of them builds must match a
brute-force ``2^m``-cell enumerator that classifies each basket into
its presence/absence cell by definition.  The parallel engine is
additionally probed with each of its per-shard kernels (``bitmap`` and
NumPy ``vectorized``), pinning down the parallel x vectorized
composition, and the forced dispatcher modes (``blocked``, ``moebius``,
``scan``) are pinned bit-identical on probes up to ``k = 5`` and on a
deterministic mining run that reaches levels 4-6 — the general level-k
kernel's territory.

Randomised databases come from Hypothesis when it is installed and from
a seeded pure-``random`` generator otherwise, so the harness runs in
minimal environments too; without NumPy the vectorized paths fall back
to the pure-Python kernels and the assertions still hold.
"""

from __future__ import annotations

import random
from itertools import combinations

import pytest

from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.core.contingency import ContingencyTable, count_tables_single_pass
from repro.core.correlation import CorrelationTest
from repro.core.itemsets import Itemset
from repro.data.basket import BasketDatabase
from repro.data.datacube import CountDatacube
from repro.fptree import FPTreePairEngine
from repro.kernels import HAS_NUMPY, KernelDispatcher, count_tables_vectorized
from repro.measures.cellsupport import CellSupport, level1_pair_may_have_support
from repro.parallel import ParallelCountingEngine

try:
    import hypothesis.strategies as st
    from hypothesis import given, settings

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised in minimal installs
    HAS_HYPOTHESIS = False

COUNTING_BACKENDS = ("bitmap", "single_pass", "cube", "vectorized", "parallel", "fptree")

SIGNIFICANCE = 0.95
SUPPORT = CellSupport(count=2, fraction=0.3)


# -- the brute-force 2^m-cell enumerator -------------------------------------


def brute_force_cells(db: BasketDatabase, itemset: Itemset) -> dict[int, int]:
    """Enumerate all ``2^m`` cells and count each by direct classification.

    Deliberately naive: no bitmaps, no Möbius inversion, no sharing —
    every basket is matched against every cell's exact presence/absence
    pattern.  This is the ground truth the optimised kernels must equal.
    """
    items = itemset.items
    m = len(items)
    counts: dict[int, int] = {}
    for cell in range(1 << m):
        matched = 0
        for basket in db:
            ok = True
            for j in range(m):
                present = items[j] in basket
                if present != bool((cell >> j) & 1):
                    ok = False
                    break
            if ok:
                matched += 1
        if matched:
            counts[cell] = matched
    return counts


def reference_mine(db: BasketDatabase) -> tuple[list[Itemset], list[Itemset]]:
    """An independent, structure-free Figure 1: plain sets + brute force.

    Returns ``(SIG, NOTSIG)`` as sorted itemset lists.  Shares only the
    statistic implementation with the real miner — candidate generation,
    membership structures, and counting are all reimplemented naively.
    """
    test = CorrelationTest(significance=SIGNIFICANCE)
    n = db.n_baskets
    counts = db.item_counts()
    items = list(db.vocabulary.ids())
    candidates = [
        Itemset(pair)
        for pair in combinations(items, 2)
        if level1_pair_may_have_support(counts[pair[0]], counts[pair[1]], n, SUPPORT)
    ]
    sig: list[Itemset] = []
    notsig: list[Itemset] = []
    level = 2
    while candidates:
        new_notsig: set[Itemset] = set()
        for candidate in candidates:
            table = ContingencyTable(candidate, brute_force_cells(db, candidate), n=n)
            if not SUPPORT(table):
                continue
            if test.statistic(table) >= test.cutoff:
                sig.append(candidate)
            else:
                new_notsig.add(candidate)
        notsig.extend(new_notsig)
        level += 1
        candidates = sorted(
            {
                a | b
                for a in new_notsig
                for b in new_notsig
                if len(a | b) == level
            }
        )
        candidates = [
            c
            for c in candidates
            if all(Itemset(sub) in new_notsig for sub in combinations(c.items, level - 1))
        ]
    return sorted(sig), sorted(notsig)


# -- database generation ------------------------------------------------------


def random_baskets(rng: random.Random, n_items: int, n_baskets: int) -> list[list[int]]:
    density = rng.uniform(0.1, 0.7)
    return [
        [item for item in range(n_items) if rng.random() < density]
        for _ in range(n_baskets)
    ]


def _signature(result):
    """Everything a refactor could silently change, in comparable form.

    Rules stay in discovery order: every backend feeds the same decision
    and the same join, so the order is part of what must agree.
    """
    rules = result.rules
    return (
        [rule.itemset for rule in rules],
        [rule.statistic for rule in rules],
        [dict(rule.table.nonzero_counts()) for rule in rules],
        result.border,
        list(result.level_stats),
        list(result.supported_uncorrelated),
        result.items_examined,
    )


def assert_all_backends_agree(baskets: list[list[int]], n_items: int) -> None:
    db = BasketDatabase.from_id_baskets(baskets, n_items=n_items)
    if db.n_baskets == 0:
        return

    reference = None
    for counting in COUNTING_BACKENDS:
        miner = ChiSquaredSupportMiner(
            significance=SIGNIFICANCE,
            support=SUPPORT,
            counting=counting,
            workers=1,  # in-process: keeps the property loop fast
        )
        signature = _signature(miner.mine(db))
        if reference is None:
            reference = signature
            continue
        assert signature == reference, counting

    assert reference is not None
    sig_itemsets, notsig_itemsets = reference_mine(db)
    assert reference[0] == sig_itemsets
    assert sorted(reference[5]) == notsig_itemsets

    # Every counting construction path equals the brute-force enumerator,
    # on the discovered itemsets and on probes none of the miners kept.
    probes = list(reference[0]) + [
        Itemset(pair) for pair in combinations(range(min(n_items, 4)), 2)
    ]
    # Wider probes exercise the general level-k kernels (k >= 4), not
    # just the closed-form pair/triple sweeps.
    for width in (4, 5):
        probes.extend(
            Itemset(combo) for combo in combinations(range(min(n_items, 5)), width)
        )
    probes = sorted(set(probes))
    if not probes:
        return
    cube = CountDatacube(db, db.vocabulary.ids())
    single = count_tables_single_pass(db, probes)
    vectorized = count_tables_vectorized(db, probes)
    with ParallelCountingEngine(db, workers=1, n_shards=3, kernel="bitmap") as engine:
        parallel_tables = engine.count_tables(probes)
    # The parallel x vectorized composition: every shard runs the NumPy
    # packed-bitmap kernels over its own rows, merged by the shard-sum
    # identity.
    with ParallelCountingEngine(db, workers=1, n_shards=3, kernel="vectorized") as engine:
        composed_tables = engine.count_tables(probes)
    # The FP-tree engine derives pair tables from one ancestor-chain
    # sweep (no candidate generation) and falls back to bitmaps above
    # level 2 — both paths are probed here.
    fptree_tables = FPTreePairEngine(db).count_tables(probes)
    # With NumPy present, force each dispatch mode so the blocked,
    # Möbius, and scan kernels are all pinned to the same bits.
    forced: dict[str, dict[Itemset, ContingencyTable]] = {}
    if HAS_NUMPY:
        for mode in ("blocked", "moebius", "scan"):
            forced[f"vectorized[{mode}]"] = count_tables_vectorized(
                db, probes, dispatcher=KernelDispatcher(mode=mode)
            )
    for probe in probes:
        expected = brute_force_cells(db, probe)
        for label, table in (
            ("bitmap", ContingencyTable.from_database(db, probe)),
            ("single_pass", single[probe]),
            ("cube", cube.table_for(probe)),
            ("vectorized", vectorized[probe]),
            ("parallel", parallel_tables[probe]),
            ("parallel x vectorized", composed_tables[probe]),
            ("fptree", fptree_tables[probe]),
            *((label, tables[probe]) for label, tables in forced.items()),
        ):
            assert dict(table.nonzero_counts()) == expected, (label, probe)
            assert table.n == db.n_baskets, (label, probe)


# -- test entry points --------------------------------------------------------

if HAS_HYPOTHESIS:

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=2, max_value=5).flatmap(
            lambda n_items: st.tuples(
                st.just(n_items),
                st.lists(
                    st.lists(
                        st.integers(min_value=0, max_value=n_items - 1),
                        max_size=n_items,
                    ),
                    min_size=4,
                    max_size=60,
                ),
            )
        )
    )
    def test_backends_agree_on_random_databases(params):
        n_items, baskets = params
        assert_all_backends_agree(baskets, n_items)

else:  # pragma: no cover - pure-random fallback for minimal environments

    @pytest.mark.parametrize("seed", range(20))
    def test_backends_agree_on_random_databases(seed):
        rng = random.Random(0xBEEF00 + seed)
        n_items = rng.randint(2, 5)
        baskets = random_baskets(rng, n_items, rng.randint(4, 60))
        assert_all_backends_agree(baskets, n_items)


def test_backends_agree_on_adversarial_shapes():
    """Hand-picked degenerate shapes every backend must survive."""
    cases = [
        ([[0, 1]] * 10, 2),  # perfectly dependent pair
        ([[0], [1]] * 10, 2),  # perfectly anti-dependent pair
        ([[0, 1, 2, 3]] * 6 + [[]] * 6, 4),  # all-or-nothing
        ([[]] * 8, 3),  # empty baskets only
        ([[0]] * 9, 1),  # single-item vocabulary: no pairs at all
        ([[0, 1], [1, 2], [0, 2]] * 7, 3),  # pairwise triangle
    ]
    for baskets, n_items in cases:
        assert_all_backends_agree(baskets, n_items)


def test_deep_levels_agree_across_backends_and_kernels():
    """All backends and forced kernels agree on a k=4..6 mining run.

    Seven near-independent coin-flip items with a permissive support
    threshold and a very strict significance cutoff keep NOTSIG full
    through level 5, so the run genuinely counts 4-, 5- and 6-itemsets —
    the general level-k kernel territory, past the closed-form pair and
    triple sweeps.
    """
    rng = random.Random(60697)
    baskets = [[i for i in range(7) if rng.random() < 0.5] for _ in range(120)]
    db = BasketDatabase.from_id_baskets(baskets, n_items=7)
    params = dict(
        significance=0.9999999,
        support=CellSupport(count=1, fraction=0.05),
        max_level=6,
    )

    reference = _signature(
        ChiSquaredSupportMiner(counting="bitmap", **params).mine(db)
    )
    levels = {stats.level for stats in reference[4] if stats.candidates}
    assert {4, 5, 6} <= levels, "the run must actually reach levels 4-6"

    configs = [
        dict(counting="single_pass"),
        dict(counting="cube"),
        dict(counting="fptree"),
        dict(counting="vectorized"),
        dict(counting="parallel"),
        dict(counting="parallel", kernel="bitmap", shared_memory="off"),
    ]
    if HAS_NUMPY:
        configs.extend(
            dict(counting="vectorized", kernel=mode)
            for mode in ("blocked", "moebius", "scan")
        )
        configs.append(dict(counting="parallel", kernel="blocked", shared_memory="on"))
    for config in configs:
        signature = _signature(
            ChiSquaredSupportMiner(**params, **config).mine(db)
        )
        assert signature == reference, config


@pytest.mark.skipif(not HAS_NUMPY, reason="autotune counters need NumPy kernels")
def test_blocked_kernel_handles_deep_levels_without_fallback():
    """Forcing ``kernel="blocked"`` counts every k >= 4 batch blocked.

    The autotune counters record one increment per (k, path) decision;
    a ``path="scan"`` entry for 4 <= k <= 12 would mean the general
    kernel fell back to per-itemset scanning.
    """
    from repro.obs import Telemetry

    rng = random.Random(60697)
    baskets = [[i for i in range(7) if rng.random() < 0.5] for _ in range(120)]
    db = BasketDatabase.from_id_baskets(baskets, n_items=7)
    telemetry = Telemetry.create()
    ChiSquaredSupportMiner(
        significance=0.9999999,
        support=CellSupport(count=1, fraction=0.05),
        max_level=6,
        counting="vectorized",
        kernel="blocked",
        telemetry=telemetry,
    ).mine(db)
    decisions = telemetry.metrics.series("kernel_autotune")
    assert decisions, "forced-blocked mining must record autotune decisions"
    deep = [key for key in decisions if any(f'k="{k}"' in key for k in (4, 5, 6))]
    assert deep, "levels 4-6 must pass through the dispatcher"
    assert all('path="blocked"' in key for key in deep), deep


@pytest.mark.slow
def test_backends_agree_with_real_worker_pool():
    """The multi-process path (workers=4) agrees with every serial backend.

    ``counting="parallel"`` defaults to ``kernel="auto"``, so with NumPy
    installed this also exercises the parallel x vectorized composition
    across real worker processes.
    """
    rng = random.Random(1997)
    baskets = random_baskets(rng, 8, 400)
    db = BasketDatabase.from_id_baskets(baskets, n_items=8)
    serial = ChiSquaredSupportMiner(
        significance=SIGNIFICANCE, support=SUPPORT, counting="bitmap"
    ).mine(db)
    vectorized = ChiSquaredSupportMiner(
        significance=SIGNIFICANCE, support=SUPPORT, counting="vectorized"
    ).mine(db)
    parallel = ChiSquaredSupportMiner(
        significance=SIGNIFICANCE, support=SUPPORT, counting="parallel", workers=4
    ).mine(db)
    assert _signature(vectorized) == _signature(serial)
    assert _signature(parallel) == _signature(serial)
