"""Unit tests for lattice utilities."""

import random
from itertools import combinations

import pytest

from repro.core.itemsets import Itemset
from repro.core.lattice import (
    all_subsets_satisfy,
    apriori_gen,
    apriori_join,
    is_downward_closed,
    is_upward_closed,
    level,
    minimal_satisfying,
)


class TestLevel:
    def test_level_enumeration(self):
        pairs = list(level([0, 1, 2], 2))
        assert pairs == [Itemset([0, 1]), Itemset([0, 2]), Itemset([1, 2])]

    def test_level_zero(self):
        assert list(level([0, 1], 0)) == [Itemset([])]

    def test_level_too_large(self):
        assert list(level([0, 1], 3)) == []

    def test_duplicate_universe_items_collapse(self):
        assert list(level([1, 1, 2], 2)) == [Itemset([1, 2])]


class TestAprioriJoin:
    def test_joins_common_prefix(self):
        pairs = [Itemset([1, 2]), Itemset([1, 3]), Itemset([2, 3])]
        joined = set(apriori_join(pairs))
        assert joined == {Itemset([1, 2, 3])}

    def test_join_singletons(self):
        singles = [Itemset([1]), Itemset([2]), Itemset([5])]
        joined = set(apriori_join(singles))
        assert joined == {Itemset([1, 2]), Itemset([1, 5]), Itemset([2, 5])}

    def test_no_join_without_shared_prefix(self):
        assert list(apriori_join([Itemset([1, 2]), Itemset([3, 4])])) == []

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            list(apriori_join([Itemset([1]), Itemset([1, 2])]))

    def test_each_candidate_once(self):
        triples = [Itemset([1, 2, 3]), Itemset([1, 2, 4]), Itemset([1, 2, 5])]
        joined = list(apriori_join(triples))
        assert len(joined) == len(set(joined)) == 3

    def test_empty_input(self):
        assert list(apriori_join([])) == []


class TestAprioriGen:
    @staticmethod
    def probing_join(itemsets):
        """The classic join: apriori_join, then probe every subset."""
        members = set(itemsets)
        return [
            candidate
            for candidate in apriori_join(sorted(itemsets))
            if all(subset in members for subset in candidate.immediate_subsets())
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_probing_join_in_order(self, seed):
        rng = random.Random(seed)
        size = rng.randint(1, 4)
        family = [Itemset(c) for c in combinations(range(9), size) if rng.random() < 0.6]
        rng.shuffle(family)
        assert apriori_gen(family) == self.probing_join(family)

    def test_keeps_only_fully_supported_candidates(self):
        pairs = [Itemset(p) for p in [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4)]]
        # {1,2,4} has all three subsets; {1,3,4} lacks {3,4}.
        assert apriori_gen(pairs) == [Itemset([1, 2, 3]), Itemset([1, 2, 4])]

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            apriori_gen([Itemset([1, 2]), Itemset([1, 2, 3])])

    def test_empty_input(self):
        assert apriori_gen([]) == []


class TestSubsetChecks:
    def test_all_subsets_satisfy_default_size(self):
        members = {Itemset([1, 2]), Itemset([1, 3]), Itemset([2, 3])}
        assert all_subsets_satisfy(Itemset([1, 2, 3]), lambda s: s in members)

    def test_all_subsets_satisfy_fails_on_missing(self):
        members = {Itemset([1, 2]), Itemset([1, 3])}
        assert not all_subsets_satisfy(Itemset([1, 2, 3]), lambda s: s in members)

    def test_explicit_size(self):
        members = {Itemset([1]), Itemset([2]), Itemset([3])}
        assert all_subsets_satisfy(Itemset([1, 2, 3]), lambda s: s in members, size=1)


class TestClosureCheckers:
    def test_size_threshold_is_upward_closed(self):
        assert is_upward_closed(range(4), lambda s: len(s) >= 2)

    def test_size_ceiling_is_downward_closed(self):
        assert is_downward_closed(range(4), lambda s: len(s) <= 2)

    def test_membership_of_specific_item_is_both(self):
        predicate = lambda s: 0 in s
        assert is_upward_closed(range(3), predicate)
        assert not is_downward_closed(range(3), predicate)

    def test_non_closed_predicate_detected(self):
        predicate = lambda s: len(s) == 2  # neither closed
        assert not is_upward_closed(range(4), predicate)
        assert not is_downward_closed(range(4), predicate)


class TestMinimalSatisfying:
    def test_minimal_of_size_threshold(self):
        minimal = minimal_satisfying(range(4), lambda s: len(s) >= 2)
        assert all(len(s) == 2 for s in minimal)
        assert len(minimal) == 6

    def test_minimal_respects_min_size(self):
        minimal = minimal_satisfying(range(3), lambda s: True, min_size=2)
        assert minimal == [Itemset([0, 1]), Itemset([0, 2]), Itemset([1, 2])]

    def test_minimal_superset_excluded(self):
        predicate = lambda s: Itemset([0, 1]).issubset(s)
        minimal = minimal_satisfying(range(4), predicate)
        assert minimal == [Itemset([0, 1])]

    def test_max_size_cap(self):
        minimal = minimal_satisfying(range(5), lambda s: len(s) >= 4, max_size=3)
        assert minimal == []

    def test_forms_antichain(self):
        import random

        rng = random.Random(7)
        chosen = {Itemset(sorted(rng.sample(range(5), 2))) for _ in range(4)}
        predicate = lambda s: any(c.issubset(s) for c in chosen)
        minimal = minimal_satisfying(range(5), predicate)
        for a in minimal:
            for b in minimal:
                if a != b:
                    assert not a.issubset(b)
