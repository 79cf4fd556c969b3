"""Ablation: perfect hashing (FKS) vs builtin dict for NOTSIG/CAND (§4).

The paper proposes FKS perfect hash tables for the constant-time subset
probes of candidate generation, and contrasts them with PCY's
collision-accepting buckets.  CPython's dict is itself a high-quality
hash table, so this ablation quantifies what the FKS guarantee costs in
a scripting language: it runs Figure 1's subset-probing join over a
real mine's NOTSIG pairs on an :class:`ItemsetTable` of each backend,
and separately benchmarks raw probe latency on the two structures.
(The miner itself joins with :func:`repro.core.lattice.apriori_gen`, a
prefix-grouped pass that needs no hash table of itemsets.)
"""

import random

import pytest

from repro.algorithms.chi2support import ChiSquaredSupportMiner
from repro.core.itemsets import Itemset
from repro.core.lattice import apriori_gen, apriori_join
from repro.hashing.itemset_table import ItemsetTable
from repro.measures.cellsupport import CellSupport


@pytest.fixture(scope="module")
def notsig_pairs(text_db):
    """The level-2 NOTSIG itemsets of a text mine: the join's input."""
    result = ChiSquaredSupportMiner(
        significance=0.95, support=CellSupport(count=5, fraction=0.3), max_level=2
    ).mine(text_db)
    return result.supported_uncorrelated


def _probing_join(notsig, backend):
    """Figure 1's join: apriori_join, then probe every subset in NOTSIG."""
    table = ItemsetTable(((itemset, None) for itemset in notsig), backend=backend)
    return [
        candidate
        for candidate in apriori_join(notsig)
        if all(subset in table for subset in candidate.immediate_subsets())
    ]


@pytest.mark.parametrize("backend", ["dict", "fks"])
def test_join_with_backend(benchmark, report, notsig_pairs, backend):
    candidates = benchmark.pedantic(
        _probing_join, args=(notsig_pairs, backend), rounds=1, iterations=1
    )
    report(
        "",
        f"{backend} backend: {len(candidates)} level-3 candidates from "
        f"{len(notsig_pairs)} NOTSIG pairs",
    )
    assert candidates == apriori_gen(notsig_pairs)


def test_backends_agree(benchmark, report, notsig_pairs):
    dict_candidates = benchmark.pedantic(
        _probing_join, args=(notsig_pairs, "dict"), rounds=1, iterations=1
    )
    assert dict_candidates == _probing_join(notsig_pairs, "fks")
    report("", "dict and fks backends produce identical candidate lists")


@pytest.fixture(scope="module")
def probe_workload():
    rng = random.Random(99)
    itemsets = [Itemset(rng.sample(range(500), 2)) for _ in range(4000)]
    itemsets = list(dict.fromkeys(itemsets))
    probes = itemsets[::2] + [Itemset(rng.sample(range(500), 2)) for _ in range(2000)]
    return itemsets, probes


@pytest.mark.parametrize("backend", ["dict", "fks"])
def test_probe_latency(benchmark, report, probe_workload, backend):
    itemsets, probes = probe_workload
    table = ItemsetTable(((s, None) for s in itemsets), backend=backend)

    def run():
        return sum(1 for probe in probes if probe in table)

    hits = benchmark(run)
    report("", f"{backend}: {hits} hits over {len(probes)} probes")
    assert hits >= len(itemsets) // 2
