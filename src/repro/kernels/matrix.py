"""One lattice level's contingency tables as a dense cell matrix.

Figure 1 makes the same decision for every candidate of a level: cell
support, then chi-squared against one cutoff.  A :class:`CellMatrix`
holds a same-width batch of candidates as one ``(c, 2^k)`` int64 array
— row ``i`` is candidate ``i``'s full table, zero cells included — plus
the ``(c, k)`` array of its per-item occurrence counts, so both tests
run as array operations over the whole level
(:meth:`repro.measures.cellsupport.CellSupport.supported_rows`,
:func:`repro.core.correlation.chi_squared_rows`).

The vectorized kernels fill the matrix directly
(:func:`repro.kernels.count_cell_matrix`); every other counting backend
hands over its tables through :meth:`CellMatrix.from_tables`.
:meth:`CellMatrix.table` turns a row back into the
:class:`~repro.core.contingency.ContingencyTable` the row's backend
would have built: same counts, marginals and basket count.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.core.contingency import ContingencyTable
from repro.core.itemsets import Itemset

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised in minimal installs
    np = None  # type: ignore[assignment]

__all__ = ["CellMatrix", "DeferredTables", "MATRIX_CHUNK_CELLS"]

# Cells of one cell matrix counted at a time: a batch with more rows is
# split into row chunks, which bounds the counting and decision scratch
# (8 MiB of int64 counts per chunk).
MATRIX_CHUNK_CELLS = 1 << 20

# Rows read back into tables per pass of :meth:`CellMatrix.tables_of`.
_READ_BLOCK = 1024


class CellMatrix:
    """Same-width contingency tables stacked row by row.

    Attributes:
        itemsets: the candidates, row order.
        cells: ``(c, 2^k)`` int64 cell counts; column ``r`` is cell ``r``
            in the bit layout of :mod:`repro.core.contingency`.
        marginals: ``(c, k)`` float64 per-item occurrence counts.
        n: the basket count every table covers.
        tables: the per-row tables a table backend handed over, or
            ``None`` when a kernel filled the matrix directly.
    """

    __slots__ = ("itemsets", "cells", "marginals", "n", "tables", "_counts", "_floats")

    def __init__(
        self,
        itemsets: Sequence[Itemset],
        cells,
        marginals,
        n: int,
        tables: Sequence[ContingencyTable] | None = None,
    ) -> None:
        self.itemsets = itemsets
        self.cells = cells
        self.marginals = marginals
        self.n = n
        self.tables = tables
        # One Python object per distinct count and marginal, shared by
        # every table read back from this matrix.
        self._counts: dict[int, int] = {}
        self._floats: dict[float, float] = {}

    @classmethod
    def from_tables(
        cls,
        itemsets: Sequence[Itemset],
        tables: Mapping[Itemset, ContingencyTable],
        n: int,
    ) -> "CellMatrix":
        """Stack one table per itemset (the adapter for table backends).

        Counts must be integers — they are for every counting backend.
        The tables themselves stay on the matrix: :meth:`table` returns
        them rather than building copies.
        """
        k = len(itemsets[0])
        ordered = [tables[itemset] for itemset in itemsets]
        rows: list[int] = []
        columns: list[int] = []
        counts: list[int] = []
        marginals: list[tuple[float, ...]] = []
        for row, table in enumerate(ordered):
            occupied = table.nonzero_counts()
            rows.extend([row] * len(occupied))
            columns.extend(occupied)
            counts.extend(occupied.values())
            marginals.append(tuple(table.marginal(j) for j in range(k)))
        values = np.asarray(counts)
        if values.size and values.dtype.kind not in "iu":
            raise TypeError("a cell matrix needs integer cell counts")
        cells = np.zeros((len(itemsets), 1 << k), dtype=np.int64)
        cells[rows, columns] = values
        return cls(itemsets, cells, np.array(marginals, dtype=np.float64), n, ordered)

    def __len__(self) -> int:
        return len(self.itemsets)

    def table(self, row: int) -> ContingencyTable:
        """Row ``row`` as a :class:`ContingencyTable` (Python-int counts)."""
        return self.tables_of([row])[0]

    def tables_of(self, rows: Sequence[int]) -> list[ContingencyTable]:
        """The tables of ``rows``, read back in one pass.

        A level's tables repeat the same few thousand counts and ``k``
        marginals per item, so the read-back tables share those number
        objects instead of each holding its own copies.
        """
        if self.tables is not None:
            return [self.tables[row] for row in rows]
        count_of = self._counts.setdefault
        float_of = self._floats.setdefault
        itemsets = self.itemsets
        n = self.n
        tables = []
        # Column-wise read-back in blocks of rows: a few long lists per
        # block instead of one short list per row, and little scratch.
        for start in range(0, len(rows), _READ_BLOCK):
            block = rows[start : start + _READ_BLOCK]
            columns = list(enumerate(
                list(map(count_of, column, column))
                for column in self.cells[block].T.tolist()
            ))
            marginal_rows = zip(*[
                map(float_of, column, column) for column in self.marginals[block].T.tolist()
            ])
            for i, (row, marginals) in enumerate(zip(block, marginal_rows)):
                occupied = {cell: column[i] for cell, column in columns if column[i]}
                tables.append(ContingencyTable._from_parts(itemsets[row], occupied, marginals, n))
        return tables


class DeferredTables:
    """The tables of chosen rows of a :class:`CellMatrix`, built on first use.

    The miner hands one to the SIG rules of each matrix it decides.  The
    first :meth:`table` call reads every chosen row back at once and
    releases the matrix, so a level's tables are allocated together
    rather than scattered among whatever the caller allocates between
    reads.  Tables a backend already built are kept straight away, and
    the matrix is not held at all.
    """

    __slots__ = ("_matrix", "_rows", "_tables")

    def __init__(self, matrix: CellMatrix, rows: Sequence[int]) -> None:
        self._matrix: CellMatrix | None = matrix
        self._rows = rows
        self._tables: dict[int, ContingencyTable] | None = None
        if matrix.tables is not None:
            self._build()

    def _build(self) -> None:
        rows = self._rows
        self._tables = dict(zip(rows, self._matrix.tables_of(rows)))
        self._matrix = None
        self._rows = ()

    def table(self, row: int) -> ContingencyTable:
        """The table of ``row`` (one of the chosen rows)."""
        if self._tables is None:
            self._build()
        return self._tables[row]
