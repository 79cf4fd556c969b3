"""Rule objects: the mining outputs users consume.

A :class:`CorrelationRule` is the paper's output unit — a (minimal)
correlated itemset together with its chi-squared evidence and the
per-cell interest values that localise the dependence.  An
:class:`AssociationRule` is the support-confidence baseline's output,
kept for comparison experiments (Tables 3 vs 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.contingency import ContingencyTable
from repro.core.correlation import CorrelationResult, CorrelationTest
from repro.core.interest import CellInterest, interest_table, most_extreme_cell
from repro.core.itemsets import Itemset, ItemVocabulary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.kernels import DeferredTables

__all__ = ["CorrelationRule", "AssociationRule", "format_cell"]


def format_cell(
    itemset: Itemset,
    pattern: tuple[bool, ...],
    vocabulary: ItemVocabulary | None = None,
) -> str:
    """Render a contingency cell like the paper does: ``a ~b c``.

    Present items print as their name; absent items with a ``~`` prefix
    (the paper's overbar).  Without a vocabulary, ids print as ``i<id>``.
    """
    parts = []
    for item, present in zip(itemset.items, pattern):
        name = vocabulary.name_of(item) if vocabulary is not None else f"i{item}"
        parts.append(name if present else f"~{name}")
    return " ".join(parts)


class CorrelationRule:
    """A correlated itemset with its statistical evidence.

    Attributes:
        itemset: the correlated items.
        result: chi-squared statistic, cutoff, p-value, validity.
        table: the contingency table the decision was made on.
        minimal: True when no proper subset is correlated (border element).

    The miner creates its rules with :meth:`deferred`: such a rule holds
    only its itemset, its statistic and a reference to the row of the
    level's cell matrix it was decided on.  ``table`` and ``result`` are
    built on first access and cached, equal to what an eager rule holds.
    """

    __slots__ = ("itemset", "minimal", "_statistic", "_test", "_result", "_table", "_source", "_row")

    def __init__(
        self,
        itemset: Itemset,
        result: CorrelationResult,
        table: ContingencyTable,
        minimal: bool = True,
    ) -> None:
        self.itemset = itemset
        self.minimal = minimal
        self._statistic = result.statistic
        self._test = None
        self._result = result
        self._table = table
        self._source = None
        self._row = 0

    @classmethod
    def deferred(
        cls,
        itemset: Itemset,
        statistic: float,
        test: CorrelationTest,
        source: "DeferredTables",
        row: int,
    ) -> "CorrelationRule":
        """A minimal rule decided on row ``row`` of a level's cell matrix.

        ``source`` builds the row's :class:`ContingencyTable` on request
        (its ``table(row)``); ``test`` supplies the cutoff and degrees
        of freedom of the evidence.
        """
        rule = object.__new__(cls)
        rule.itemset = itemset
        rule.minimal = True
        rule._statistic = statistic
        rule._test = test
        rule._result = None
        rule._table = None
        rule._source = source
        rule._row = row
        return rule

    @property
    def table(self) -> ContingencyTable:
        """The contingency table the decision was made on."""
        if self._table is None:
            self._table = self._source.table(self._row)
            self._source = None
        return self._table

    @property
    def result(self) -> CorrelationResult:
        """The statistic, cutoff, p-value and validity of the test."""
        if self._result is None:
            self._result = CorrelationResult.deferred(self._statistic, self._test, self.table)
        return self._result

    @property
    def statistic(self) -> float:
        """The chi-squared value."""
        return self._statistic

    @property
    def p_value(self) -> float:
        """Upper-tail p-value at 1 dof."""
        return self.result.p_value

    def interests(self) -> list[CellInterest]:
        """Interest of every contingency cell (paper §3.1)."""
        return interest_table(self.table)

    def major_dependence(self) -> CellInterest:
        """The cell contributing most to chi-squared — the paper's
        "major dependence" column of Table 4."""
        return most_extreme_cell(self.table)

    def describe(self, vocabulary: ItemVocabulary | None = None) -> str:
        """One-line human-readable summary of the rule."""
        names = (
            " ".join(vocabulary.decode(self.itemset))
            if vocabulary is not None
            else " ".join(f"i{i}" for i in self.itemset)
        )
        major = self.major_dependence()
        cell = format_cell(self.itemset, major.pattern, vocabulary)
        return (
            f"{{{names}}}: chi2={self.statistic:.3f} (p={self.p_value:.3g}), "
            f"major dependence [{cell}] I={major.interest:.3f}"
        )

    def __repr__(self) -> str:
        return (
            f"CorrelationRule(itemset={self.itemset!r}, result={self.result!r}, "
            f"minimal={self.minimal!r})"
        )


@dataclass(frozen=True, slots=True)
class AssociationRule:
    """A support-confidence rule ``antecedent => consequent`` (§1.1)."""

    antecedent: Itemset
    consequent: Itemset
    support: float
    confidence: float
    lift: float = math.nan

    def __post_init__(self) -> None:
        if self.antecedent & self.consequent:
            raise ValueError("rule sides must be disjoint")
        if len(self.antecedent) == 0 or len(self.consequent) == 0:
            raise ValueError("both rule sides must be non-empty")

    def passes(self, min_support: float, min_confidence: float) -> bool:
        """The support-confidence acceptance test."""
        return self.support >= min_support and self.confidence >= min_confidence

    def describe(self, vocabulary: ItemVocabulary | None = None) -> str:
        """One-line rendering, e.g. ``tea => coffee (s=0.20, c=0.80)``."""
        def names(itemset: Itemset) -> str:
            if vocabulary is not None:
                return " ".join(vocabulary.decode(itemset))
            return " ".join(f"i{i}" for i in itemset)

        text = f"{names(self.antecedent)} => {names(self.consequent)} "
        text += f"(s={self.support:.3f}, c={self.confidence:.3f}"
        if not math.isnan(self.lift):
            text += f", lift={self.lift:.3f}"
        return text + ")"
