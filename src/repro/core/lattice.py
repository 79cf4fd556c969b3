"""The itemset lattice: levels, closure checks, brute-force search.

The paper frames correlation mining as a search over the lattice of
subsets of the item space (§2): significance is *upward closed*, support
is *downward closed*, and the itemsets of interest form a *border*
between the two regions.  This module provides the lattice-level
utilities the miners and the property tests share: level enumeration,
candidate joins, and brute-force closure verification on small
universes (the ground truth the fast algorithms are checked against).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import combinations

from repro.core.itemsets import Itemset

__all__ = [
    "level",
    "apriori_join",
    "apriori_gen",
    "all_subsets_satisfy",
    "is_upward_closed",
    "is_downward_closed",
    "minimal_satisfying",
]


def level(universe: Iterable[int], size: int) -> Iterator[Itemset]:
    """All itemsets of a given size over ``universe``, in sorted order."""
    items = sorted(set(universe))
    for combo in combinations(items, size):
        yield Itemset(combo)


def apriori_join(itemsets: Iterable[Itemset]) -> Iterator[Itemset]:
    """The classic level-wise join: merge i-itemsets sharing an (i-1)-prefix.

    Given the size-``i`` itemsets that passed the previous level, yields
    every size-``i+1`` itemset whose *two generating* subsets are in the
    input (the remaining subsets must be checked by the caller — the
    paper does exactly this against NOTSIG).  Each candidate is yielded
    once.
    """
    by_prefix: dict[tuple[int, ...], list[int]] = {}
    sizes = set()
    for itemset in itemsets:
        sizes.add(len(itemset))
        if len(sizes) > 1:
            raise ValueError("apriori_join requires itemsets of a single size")
        items = itemset.items
        by_prefix.setdefault(items[:-1], []).append(items[-1])
    for prefix, lasts in by_prefix.items():
        lasts.sort()
        for a, b in combinations(lasts, 2):
            yield Itemset._from_sorted(prefix + (a, b))


def apriori_gen(itemsets: Iterable[Itemset]) -> list[Itemset]:
    """Every (i+1)-itemset whose i-subsets are all in ``itemsets``.

    Step 8 of Figure 1 (the next level's CAND from NOTSIG) in one
    prefix-grouped pass over the sorted itemsets.  Joining ``a < b``
    from the run that shares an (i-1)-prefix ``P`` yields ``P + (a, b)``;
    its other i-subsets are ``P - P[j] + (a, b)``, so the ``b`` that
    survive for a given ``a`` are the later members of the run that
    also end every run with prefix ``P - P[j] + (a,)`` — a few set
    intersections per ``a`` instead of a lookup per candidate subset.
    Candidates come out in lexicographic order, which on sorted input
    is the order :func:`apriori_join` yields them in.
    """
    lasts_of: dict[tuple[int, ...], list[int]] = {}
    for items in sorted(itemset.items for itemset in itemsets):
        lasts_of.setdefault(items[:-1], []).append(items[-1])
    if len({len(prefix) for prefix in lasts_of}) > 1:
        raise ValueError("apriori_gen requires itemsets of a single size")
    last_sets = {prefix: set(lasts) for prefix, lasts in lasts_of.items()}
    empty: set[int] = set()
    candidates: list[Itemset] = []
    for prefix in sorted(lasts_of):
        lasts = lasts_of[prefix]
        reduced = [prefix[:j] + prefix[j + 1 :] for j in range(len(prefix))]
        for index, a in enumerate(lasts):
            allowed = set(lasts[index + 1 :])
            for other in reduced:
                if not allowed:
                    break
                allowed &= last_sets.get(other + (a,), empty)
            head = prefix + (a,)
            for b in sorted(allowed):
                candidates.append(Itemset._from_sorted(head + (b,)))
    return candidates


def all_subsets_satisfy(
    itemset: Itemset,
    members: Callable[[Itemset], bool],
    size: int | None = None,
) -> bool:
    """True when every subset of the given size (default: |S|-1) passes."""
    target = len(itemset) - 1 if size is None else size
    return all(members(subset) for subset in itemset.subsets(target))


def _all_itemsets(universe: Iterable[int]) -> Iterator[Itemset]:
    items = sorted(set(universe))
    for size in range(1, len(items) + 1):
        for combo in combinations(items, size):
            yield Itemset(combo)


def is_upward_closed(
    universe: Iterable[int], predicate: Callable[[Itemset], bool]
) -> bool:
    """Brute-force check that ``predicate`` is upward closed.

    Exponential in the universe size — intended for tests on small item
    spaces, where it verifies Theorem 1 empirically.
    """
    items = sorted(set(universe))
    for itemset in _all_itemsets(items):
        if predicate(itemset):
            for superset in itemset.immediate_supersets(items):
                if not predicate(superset):
                    return False
    return True


def is_downward_closed(
    universe: Iterable[int], predicate: Callable[[Itemset], bool]
) -> bool:
    """Brute-force check that ``predicate`` is downward closed (small universes)."""
    for itemset in _all_itemsets(universe):
        if predicate(itemset) and len(itemset) > 1:
            if not all(predicate(sub) for sub in itemset.immediate_subsets()):
                return False
    return True


def minimal_satisfying(
    universe: Iterable[int],
    predicate: Callable[[Itemset], bool],
    min_size: int = 1,
    max_size: int | None = None,
) -> list[Itemset]:
    """Brute-force the minimal itemsets satisfying an upward-closed predicate.

    The ground-truth border: an itemset is reported when it passes and
    no proper subset of size >= ``min_size`` passes.  Exponential;
    for tests and tiny datasets only.
    """
    items = sorted(set(universe))
    top = len(items) if max_size is None else min(max_size, len(items))
    satisfied: set[Itemset] = set()
    minimal: list[Itemset] = []
    for size in range(min_size, top + 1):
        for combo in combinations(items, size):
            itemset = Itemset(combo)
            has_satisfied_subset = any(
                sub in satisfied
                for k in range(min_size, size)
                for sub in itemset.subsets(k)
            )
            if has_satisfied_subset:
                satisfied.add(itemset)
                continue
            if predicate(itemset):
                satisfied.add(itemset)
                minimal.append(itemset)
    return sorted(minimal)
