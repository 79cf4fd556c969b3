"""Batched closed-form sweeps for level-2 and level-3 candidates.

The miner's wall-clock is dominated by the lowest lattice levels, where
candidate counts are largest.  Instead of one Python big-int AND +
``bit_count()`` per candidate, these kernels count *every* candidate of
a level in a handful of vectorized passes: gather the candidates' bitmap
rows, AND them row-broadcast, popcount, sum along the word axis — then
fill the remaining cells from the marginals by the closed forms the
pure-Python ``_cells_pair`` / ``_cells_triple`` kernels use, so counts
are bit-identical by construction.

Row blocks are processed in chunks of at most :data:`CHUNK_WORDS` words
so peak scratch memory stays bounded (~2 x 512 KiB at the default) no
matter how many candidates a level has.  Larger chunks buy no speed:
the per-chunk NumPy call overhead is already amortised at this size,
and each extra MiB of scratch shows up in the miner's peak RSS.
"""

from __future__ import annotations

from repro.kernels.packed import PackedBitmapIndex, popcount

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised in minimal installs
    np = None  # type: ignore[assignment]

__all__ = [
    "CHUNK_WORDS",
    "closed_form_cell_matrix",
    "count_closed_form_batch",
    "pair_cell_columns",
    "pair_supports",
    "triple_cell_columns",
]

# Upper bound on uint64 words materialised per intermediate array.
CHUNK_WORDS = 1 << 16

# Basket-chunk cap for the Gram-matrix path: float32 products of 0/1
# bits stay exact integers while a partial sum fits 2^24, i.e. for
# chunks of at most 2^24 baskets (= 2^18 words); per-chunk sums are
# then accumulated exactly in float64.
_GRAM_CHUNK_WORDS = 1 << 18


def _chunked_and_popcount(index: PackedBitmapIndex, id_arrays, out) -> None:
    """``out[i] = |AND of rows id_arrays[0][i], id_arrays[1][i], ...|``.

    The innermost loop of both sweeps: intersects the rows selected by
    each id array (all the same length) chunk by chunk and writes the
    per-candidate popcount sums into ``out``.
    """
    total = out.shape[0]
    width = max(1, index.n_words)
    step = max(1, CHUNK_WORDS // width)
    packed = index.packed
    for start in range(0, total, step):
        stop = min(start + step, total)
        block = packed[id_arrays[0][start:stop]]
        for ids in id_arrays[1:]:
            block = block & packed[ids[start:stop]]
        out[start:stop] = popcount(block).sum(axis=1, dtype=np.int64)


def _gram_supports(index: PackedBitmapIndex, ids) -> "np.ndarray":
    """All pair supports at once via a blocked Gram matrix.

    Unpack the distinct items' rows to a 0/1 matrix ``B`` and compute
    ``B @ B.T``: entry ``(i, j)`` is exactly ``|bitmap_i AND bitmap_j|``.
    The matmul runs in BLAS, which beats per-pair AND + popcount by an
    order of magnitude once the candidate pairs cover a dense fraction
    of the item-pair square.  Padding bits past ``n_baskets`` are zero
    in every row, so they add nothing to any product.

    Exactness: 0/1 products summed over at most ``2^24`` baskets per
    chunk are exact in float32; chunk sums are accumulated in float64
    (exact up to ``2^53``), then rounded-trip to int64.
    """
    distinct, inverse = np.unique(ids, return_inverse=True)
    inverse = inverse.reshape(ids.shape)
    rows = index.packed[distinct]
    d = distinct.size
    gram = np.zeros((d, d), dtype=np.float64)
    step = max(1, min(_GRAM_CHUNK_WORDS, CHUNK_WORDS // max(1, d)))
    for start in range(0, rows.shape[1], step):
        block = np.ascontiguousarray(rows[:, start : start + step])
        bits = np.unpackbits(block.astype("<u8").view(np.uint8), axis=1, bitorder="little")
        b = bits.astype(np.float32)
        gram += (b @ b.T).astype(np.float64)
    return gram[inverse[:, 0], inverse[:, 1]].astype(np.int64)


def pair_supports(index: PackedBitmapIndex, ids) -> "np.ndarray":
    """``|bitmap_a AND bitmap_b|`` for every row of the ``(n, 2)`` id array.

    Routes between the two level-2 strategies: candidate sets covering a
    dense fraction of the distinct-item pair square go through the
    Gram-matrix matmul, sparse ones through chunked row-gather AND +
    popcount (gathering only the rows actually probed).
    """
    n_pairs = ids.shape[0]
    d = np.unique(ids).size
    # The matmul wins once the candidate set is both dense in the pair
    # square AND large enough to amortise the unpack + GEMM setup;
    # small batches (census-sized item spaces) gather faster.
    if d >= 32 and 4 * n_pairs >= d * d:
        return _gram_supports(index, ids)
    both = np.empty(n_pairs, dtype=np.int64)
    _chunked_and_popcount(index, (ids[:, 0], ids[:, 1]), both)
    return both


def pair_cell_columns(index: PackedBitmapIndex, pairs):
    """All four contingency cells of every pair, as int64 columns.

    ``pairs`` is a sequence of ``(a, b)`` id tuples.  The batched sweep
    gives the both-present cell for every pair; the other three cells
    follow from the item marginals in closed form:

    ``O(a ~b) = O(a) - O(ab)``, ``O(~a b) = O(b) - O(ab)``,
    ``O(~a ~b) = n - O(a) - O(b) + O(ab)``.

    Returns ``(both, only_a, only_b, neither, count_a, count_b)``.
    """
    ids = np.asarray(pairs, dtype=np.intp).reshape(len(pairs), 2)
    both = pair_supports(index, ids)
    count_a = index.counts[ids[:, 0]]
    count_b = index.counts[ids[:, 1]]
    n = index.n_baskets
    only_a = count_a - both
    only_b = count_b - both
    neither = n - count_a - count_b + both
    return both, only_a, only_b, neither, count_a, count_b


def triple_cell_columns(index: PackedBitmapIndex, triples):
    """All eight contingency cells of every triple, as int64 columns.

    One batched pair sweep (ab, ac, bc stacked), one 3-way AND +
    popcount pass (abc), and the same inclusion-exclusion fill as the
    pure-Python ``_cells_triple``.
    Returns ``(cells, marginal_columns)`` where ``cells`` maps cell
    index to its column and ``marginal_columns`` is ``(n_a, n_b, n_c)``.
    """
    n_triples = len(triples)
    ids = np.asarray(triples, dtype=np.intp).reshape(n_triples, 3)
    a, b, c = ids[:, 0], ids[:, 1], ids[:, 2]
    # The three pair supports go through pair_supports so dense triple
    # batches (whose ab/ac/bc pairs tile the item square) get the
    # Gram-matrix path; only the 3-way AND needs a dedicated pass.
    stacked = np.concatenate([ids[:, 0:2], ids[:, 0:3:2], ids[:, 1:3]], axis=0)
    pair = pair_supports(index, stacked)
    n_ab = pair[:n_triples]
    n_ac = pair[n_triples : 2 * n_triples]
    n_bc = pair[2 * n_triples :]
    n_abc = np.empty(n_triples, dtype=np.int64)
    _chunked_and_popcount(index, (a, b, c), n_abc)

    n_a = index.counts[a]
    n_b = index.counts[b]
    n_c = index.counts[c]
    n = index.n_baskets
    cells = {
        0b111: n_abc,
        0b011: n_ab - n_abc,
        0b101: n_ac - n_abc,
        0b110: n_bc - n_abc,
        0b001: n_a - n_ab - n_ac + n_abc,
        0b010: n_b - n_ab - n_bc + n_abc,
        0b100: n_c - n_ac - n_bc + n_abc,
        0b000: n - n_a - n_b - n_c + n_ab + n_ac + n_bc - n_abc,
    }
    return cells, (n_a, n_b, n_c)


def closed_form_cell_matrix(index: PackedBitmapIndex, ids) -> "np.ndarray":
    """The ``(c, 2^k)`` int64 cell matrix of a ``(c, 2)`` or ``(c, 3)`` id array.

    Column ``r`` holds cell ``r`` of every candidate, filled from
    :func:`pair_cell_columns` or :func:`triple_cell_columns`.
    """
    n_rows, k = ids.shape
    cells = np.empty((n_rows, 1 << k), dtype=np.int64)
    if k == 2:
        both, only_a, only_b, neither, _, _ = pair_cell_columns(index, ids)
        cells[:, 0b11] = both
        cells[:, 0b01] = only_a
        cells[:, 0b10] = only_b
        cells[:, 0b00] = neither
    elif k == 3:
        columns, _ = triple_cell_columns(index, ids)
        for cell, column in columns.items():
            cells[:, cell] = column
    else:
        raise ValueError(f"closed forms cover pairs and triples, got {k} items")
    return cells


def count_closed_form_batch(index: PackedBitmapIndex, candidates) -> list[dict[int, int]]:
    """Sparse cell counts for a same-width batch of item pairs or triples."""
    if len(candidates) == 0:
        return []
    ids = np.asarray(candidates, dtype=np.intp).reshape(len(candidates), -1)
    return [
        {cell: count for cell, count in enumerate(row) if count}
        for row in closed_form_cell_matrix(index, ids).tolist()
    ]
