"""An output oracle that shares no code with the program under test.

Cells are recounted from the raw baskets with NumPy, cell support and
the chi-squared statistic are recomputed with the paper's formulas
(``E[r] = n * prod p_j or (1 - p_j)``, ``chi2 = sum (O - E)^2 / E``), and
the 95% cutoff comes from the standard normal tail, not from
``repro.stats``.  Summation order differs from the program's, so
statistics agree to a relative tolerance and decisions within that band
of the cutoff are accepted either way.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, Sequence

import numpy as np

from perfbench.workloads import SIGNIFICANCE, MineParams

__all__ = [
    "BasketMatrix",
    "critical_value",
    "border_digest",
    "check_mine",
    "check_topk",
    "cells_from_bits",
]

RELATIVE_TOLERANCE = 1e-9


def critical_value(significance: float) -> float:
    """The one-degree-of-freedom chi-squared cutoff at ``significance``.

    For one degree of freedom ``P(X > x) = erfc(sqrt(x / 2))``; the
    cutoff is found by bisection on that closed form.
    """
    tail = 1.0 - significance
    lo, hi = 0.0, 100.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if math.erfc(math.sqrt(mid / 2.0)) > tail:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


class BasketMatrix:
    """The raw baskets as packed per-item bit columns, for exact recounts."""

    # Words of gathered columns held at once while counting a batch.
    CHUNK_WORDS = 2_000_000

    def __init__(self, rows: Sequence[Sequence[int]], n_items: int) -> None:
        lengths = np.fromiter((len(row) for row in rows), dtype=np.int64, count=len(rows))
        flat = np.fromiter(
            (item for row in rows for item in row), dtype=np.int64, count=int(lengths.sum())
        )
        self.n_items = max(n_items, int(flat.max()) + 1 if flat.size else 0)
        self.matrix = np.zeros((len(rows), self.n_items), dtype=np.uint8)
        self.matrix[np.repeat(np.arange(len(rows)), lengths), flat] = 1
        self._packed: dict[int, np.ndarray] = {}

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def packed(self, n_rows: int) -> np.ndarray:
        """``(n_items, words)`` uint64 columns of the first ``n_rows`` baskets."""
        if n_rows not in self._packed:
            columns = np.packbits(self.matrix[:n_rows].T, axis=1, bitorder="little")
            pad = (-columns.shape[1]) % 8
            columns = np.pad(columns, ((0, 0), (0, pad)))
            self._packed[n_rows] = np.ascontiguousarray(columns).view(np.uint64)
        return self._packed[n_rows]

    def cells(self, itemsets: Sequence[Sequence[int]], n_rows: int | None = None) -> np.ndarray:
        """``(len(itemsets), 2^m)`` exact cell counts over the first ``n_rows``.

        Cell ``r`` has bit ``j`` set when the itemset's ``j``-th smallest
        item is present — the program's cell numbering.  The support of
        every subset comes from popcounts of ANDed bit columns; cells
        follow by inclusion-exclusion over supersets.
        """
        n_rows = self.n if n_rows is None else n_rows
        ids = np.asarray(itemsets, dtype=np.int64)
        count, width = ids.shape
        packed = self.packed(n_rows)
        chunk = max(1, self.CHUNK_WORDS // max(1, packed.shape[1]))
        supports = np.empty((count, 1 << width), dtype=np.int64)
        supports[:, 0] = n_rows
        for begin in range(0, count, chunk):
            block = ids[begin : begin + chunk]
            for mask in range(1, 1 << width):
                positions = [j for j in range(width) if mask >> j & 1]
                present = packed[block[:, positions[0]]]
                for j in positions[1:]:
                    present = present & packed[block[:, j]]
                supports[begin : begin + block.shape[0], mask] = _popcount(present).sum(axis=1)
        cells = supports
        for j in range(width):
            bit = 1 << j
            for mask in range(1 << width):
                if not mask & bit:
                    cells[:, mask] -= cells[:, mask | bit]
        return cells


_BYTE_POPCOUNT = np.array([bin(value).count("1") for value in range(256)], dtype=np.int64)


def _popcount(words: np.ndarray) -> np.ndarray:
    """Per-word set-bit counts of a uint64 array."""
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).astype(np.int64)
    as_bytes = words.view(np.uint8).reshape(*words.shape, 8)
    return _BYTE_POPCOUNT[as_bytes].sum(axis=-1)


def chi_squared(cells: np.ndarray) -> np.ndarray:
    """Per-row chi-squared of ``(c, 2^m)`` cell counts, the paper's sum."""
    cells = cells.astype(np.float64)
    n_cells = cells.shape[1]
    width = n_cells.bit_length() - 1
    n = cells.sum(axis=1)
    pattern = (np.arange(n_cells)[:, None] >> np.arange(width)[None, :]) & 1
    marginals = cells @ pattern  # (c, m) item counts
    probability = marginals / n[:, None]
    expected = np.repeat(n[:, None], n_cells, axis=1)
    for j in range(width):
        present = pattern[:, j].astype(bool)
        expected = expected * np.where(present[None, :], probability[:, j : j + 1], 1.0 - probability[:, j : j + 1])
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(expected > 0.0, (cells - expected) ** 2 / expected, 0.0)
    return terms.sum(axis=1)


def supported(cells: np.ndarray, count: float, fraction: float) -> np.ndarray:
    """Cell support: at least ``fraction`` of the cells reach ``count``."""
    return (cells >= count).sum(axis=1) >= fraction * cells.shape[1]


def cells_from_bits(cells: dict[str, int], width: int) -> list[int]:
    """Dense counts from the wire's ``{"0110": count}`` form (bit j = char j)."""
    dense = [0] * (1 << width)
    for bits, value in cells.items():
        dense[sum(1 << j for j, char in enumerate(bits) if char == "1")] = int(value)
    return dense


def border_digest(sig: Iterable[Sequence[int]], notsig: Iterable[Sequence[int]]) -> str:
    """Order-independent digest of a mine's SIG and NOTSIG sets."""
    text = repr((sorted(tuple(s) for s in sig), sorted(tuple(s) for s in notsig)))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= RELATIVE_TOLERANCE * max(1.0, abs(a), abs(b))


def _decides(statistic: float, cutoff: float, correlated: bool) -> bool:
    """Whether ``correlated`` is a sound verdict for ``statistic``."""
    if abs(statistic - cutoff) <= RELATIVE_TOLERANCE * cutoff:
        return True
    return (statistic >= cutoff) == correlated


def _wider(uncorrelated: Sequence[tuple[int, ...]], n_items: int) -> list[tuple[int, ...]]:
    """Itemsets one item wider whose immediate subsets are all in ``uncorrelated``."""
    known = set(uncorrelated)
    wider = []
    for itemset in sorted(known):
        for item in range(itemset[-1] + 1, n_items):
            candidate = itemset + (item,)
            if all(candidate[:j] + candidate[j + 1 :] in known for j in range(len(itemset))):
                wider.append(candidate)
    return wider


def check_mine(
    matrix: BasketMatrix,
    sig: dict[tuple[int, ...], tuple[float, dict[int, float]]],
    notsig: Sequence[tuple[int, ...]],
    params: MineParams,
) -> list[str]:
    """Problems found in one mine's output (empty when it is correct).

    ``sig`` maps each SIG itemset to the program's statistic and sparse
    cells.  The oracle runs the cascade itself on recounted cells: level
    2 is every pair of items, level ``k + 1`` every itemset whose
    immediate subsets the oracle found supported and uncorrelated at
    level ``k``, up to ``max_level``.  The supported candidates must be
    exactly the reported SIG and NOTSIG itemsets; a SIG itemset must have
    the recounted cells and statistic and reach the cutoff, a NOTSIG
    itemset must stay below it.  Statistics within the tolerance band of
    the cutoff follow the program's verdict.
    """
    cutoff = critical_value(SIGNIFICANCE)
    reported_notsig = set(notsig)
    problems = [f"{itemset}: reported both SIG and NOTSIG" for itemset in sorted(reported_notsig & set(sig))]
    expected: set[tuple[int, ...]] = set()
    candidates = [(a, b) for a in range(matrix.n_items) for b in range(a + 1, matrix.n_items)]
    width = 2
    while candidates and width <= params.max_level:
        cells = matrix.cells(candidates)
        stats = chi_squared(cells)
        ok = supported(cells, params.support_count, params.support_fraction)
        uncorrelated = []
        for row, itemset in enumerate(candidates):
            if not ok[row]:
                continue
            expected.add(itemset)
            statistic = float(stats[row])
            near = abs(statistic - cutoff) <= RELATIVE_TOLERANCE * cutoff
            if not (itemset in sig if near else statistic >= cutoff):
                uncorrelated.append(itemset)
            if itemset in sig:
                program_statistic, sparse = sig[itemset]
                dense = [0] * (1 << width)
                for cell, value in sparse.items():
                    dense[int(cell)] = int(value)
                if dense != cells[row].tolist():
                    problems.append(f"SIG {itemset}: cells {dense} != recount {cells[row].tolist()}")
                elif not _same(program_statistic, statistic):
                    problems.append(f"SIG {itemset}: chi2 {program_statistic} != recount {statistic}")
                elif not _decides(statistic, cutoff, True):
                    problems.append(f"SIG {itemset}: chi2 {statistic} below cutoff {cutoff}")
            elif itemset in reported_notsig and not _decides(statistic, cutoff, False):
                problems.append(f"NOTSIG {itemset}: correlated (chi2 {statistic})")
        candidates = _wider(uncorrelated, matrix.n_items)
        width += 1
    reported = reported_notsig | set(sig)
    problems.extend(
        f"{itemset}: supported candidate missing from SIG and NOTSIG" for itemset in sorted(expected - reported)
    )
    problems.extend(
        f"{itemset}: reported but not a supported candidate" for itemset in sorted(reported - expected)
    )
    return problems


def check_topk(
    matrix: BasketMatrix,
    n_rows: int,
    reported: Sequence[tuple[tuple[int, int], float]],
    k: int,
) -> list[str]:
    """Check a top-K answer against every co-occurring pair's recount.

    The reported statistics must equal the recount of their own pairs,
    and their sorted values must equal the ``k`` largest recounted
    statistics among pairs that co-occur at least once.
    """
    width = matrix.n_items
    pairs = [(a, b) for a in range(width) for b in range(a + 1, width)]
    cells = matrix.cells(pairs, n_rows)
    stats = chi_squared(cells)
    universe = sorted((float(s) for s, c in zip(stats, cells[:, 3]) if c > 0), reverse=True)
    problems: list[str] = []
    index = {pair: row for row, pair in enumerate(pairs)}
    for pair, statistic in reported:
        if pair not in index or not _same(statistic, float(stats[index[pair]])):
            problems.append(f"top-K {pair}: chi2 {statistic} does not match its recount")
    expected = universe[:k]
    got = sorted((statistic for _, statistic in reported), reverse=True)
    if len(got) != len(expected) or not all(_same(a, b) for a, b in zip(got, expected)):
        problems.append(f"top-K statistics {got[:3]}... differ from the recount {expected[:3]}...")
    return problems
