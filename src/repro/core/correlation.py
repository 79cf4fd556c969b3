"""The chi-squared correlation test on contingency tables.

Implements the paper's core statistic,

    chi2 = sum_r (O(r) - E[r])^2 / E[r],

both as the textbook full-table sum and in the *sparse* form derived in
Section 4,

    chi2 = sum_{r : O(r) != 0} O(r) (O(r) - 2 E[r]) / E[r]  +  n,

which only visits occupied cells and therefore costs
``O(min(n, 2^k))``.  The two forms are algebraically identical
(``sum_r E[r] = n``); a property test pins that down.

A :class:`CorrelationTest` bundles the statistic with the significance
decision at a cutoff (3.84 at the paper's 95% level for the 1-dof
tables) and with the rule-of-thumb validity diagnostics of §3.3.

:func:`chi_squared_rows` evaluates the statistic for a whole lattice
level at once, one row of a ``(c, 2^k)`` cell matrix per itemset; it is
bit-identical to :func:`chi_squared` row by row.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.contingency import ContingencyTable, ExpectedValueValidity
from repro.stats import chi2 as chi2_dist
from repro.stats.criticals import critical_value

__all__ = [
    "chi_squared_dense",
    "chi_squared_sparse",
    "chi_squared",
    "chi_squared_ignoring_small_cells",
    "chi_squared_rows",
    "CorrelationResult",
    "CorrelationTest",
    "RobustResult",
    "robust_independence_test",
]


def chi_squared_dense(table: ContingencyTable) -> float:
    """Full-table chi-squared sum over all ``2^k`` cells.

    The expected-value spectrum is built by doubling from the marginal
    probabilities — ``O(2^k)`` multiplications total instead of a
    k-multiplication :meth:`~ContingencyTable.expected` call per cell —
    with the factor order of the per-cell evaluation preserved exactly
    (the same precedent as :meth:`ContingencyTable.validity`), so the
    statistic is bit-identical to the naive sum.  Cells are visited in
    ascending index order, matching :func:`chi_squared_sparse`'s
    canonical summation order.

    Cells whose expected value is zero are skipped when their observed
    count is also zero (a structural zero — an item occurring in every
    basket or in none — contributes nothing); a positive observation
    with zero expectation is a degenerate table and raises.
    """
    expected_list = [float(table.n)]
    for p in table.marginal_probabilities():
        expected_list = [e * (1.0 - p) for e in expected_list] + [
            e * p for e in expected_list
        ]
    total = 0.0
    for cell, expected in enumerate(expected_list):
        observed = table.observed(cell)
        if expected == 0.0:
            if observed:
                raise ZeroDivisionError(
                    "observed count in a cell with zero expectation; "
                    "the independence model is degenerate for this table"
                )
            continue
        deviation = observed - expected
        total += deviation * deviation / expected
    return total


def chi_squared_sparse(table: ContingencyTable) -> float:
    """Occupied-cells-only chi-squared via the paper's massaged formula.

    Cells are visited in ascending index order: float addition is not
    associative, and the occupied-cell dict's insertion order differs
    between counting backends (bitmap closed forms, single-pass scans,
    datacube roll-ups, shard merges).  A canonical summation order keeps
    the statistic bit-identical across all of them — which the
    differential backend-equivalence suite asserts.
    """
    n = table.n
    probabilities = table.marginal_probabilities()
    k = len(probabilities)
    total = 0.0
    counts = table.nonzero_counts()
    for cell in sorted(counts):
        observed = counts[cell]
        expected = n
        for j in range(k):
            p = probabilities[j]
            expected *= p if (cell >> j) & 1 else 1.0 - p
        if expected == 0.0:
            raise ZeroDivisionError(
                "observed count in a cell with zero expectation; "
                "the independence model is degenerate for this table"
            )
        total += observed * (observed - 2.0 * expected) / expected
    # sum_r E[r] = n except for probability mass that the independence
    # model places on structurally impossible patterns; for tables built
    # from a real database the marginals make that mass zero.  The
    # rearranged sum can cancel to a tiny negative value for a perfectly
    # independent table; clamp it, the statistic is non-negative.
    return max(total + table.n, 0.0)


def chi_squared(table: ContingencyTable) -> float:
    """Chi-squared statistic, choosing the cheaper evaluation.

    Uses the sparse formula when the table has fewer occupied cells than
    total cells, exactly as the paper's ``O(min(n, 2^i))`` analysis
    prescribes.
    """
    if table.n_occupied < table.n_cells:
        return chi_squared_sparse(table)
    return chi_squared_dense(table)


def chi_squared_rows(cells, marginals, n):
    """:func:`chi_squared` of every row of a cell matrix, as one array pass.

    ``cells`` is a ``(c, 2^k)`` integer NumPy array whose row ``i``
    holds every cell count of table ``i`` (zero cells included),
    ``marginals`` the ``(c, k)`` float array of its per-item occurrence
    counts, and ``n`` the basket count shared by all tables.  Returns
    the ``(c,)`` float64 array of statistics.

    Every row gets the same bits :func:`chi_squared` gives its table,
    so a decision against a cutoff can never flip:

    * each row takes the formula :func:`chi_squared` would pick — the
      sparse one when it has fewer occupied cells than ``2^k``;
    * the expectation of a cell is ``n * f_0 * f_1 * ...`` multiplied in
      the scalar code's factor order, built by the same doubling as
      :func:`chi_squared_dense`;
    * the sum runs over an explicit loop on the cell columns in
      ascending cell order, never a reduction along the cell axis
      (NumPy's pairwise summation would reassociate it).

    A positive count on a zero expectation raises the scalar code's
    ``ZeroDivisionError``.
    """
    import numpy as np

    n_rows, n_cells = cells.shape
    probabilities = marginals / n
    expected = [np.full(n_rows, float(n))]
    for j in range(probabilities.shape[1]):
        p = probabilities[:, j]
        absent = 1.0 - p
        expected = [e * absent for e in expected] + [e * p for e in expected]
    sparse = np.count_nonzero(cells, axis=1) < n_cells
    total = np.zeros(n_rows)
    with np.errstate(divide="ignore", invalid="ignore"):
        for cell in range(n_cells):
            observed = cells[:, cell].astype(np.float64)
            e = expected[cell]
            occupied = observed != 0.0
            empty_model = e == 0.0
            if np.any(occupied & empty_model):
                raise ZeroDivisionError(
                    "observed count in a cell with zero expectation; "
                    "the independence model is degenerate for this table"
                )
            deviation = observed - e
            term = np.where(
                sparse,
                observed * (observed - 2.0 * e) / e,
                deviation * deviation / e,
            )
            counted = np.where(sparse, occupied, ~empty_model)
            total = np.where(counted, total + term, total)
    return np.where(sparse, np.maximum(total + n, 0.0), total)


def chi_squared_ignoring_small_cells(
    table: ContingencyTable, min_expected: float
) -> float:
    """Chi-squared restricted to cells with expectation >= ``min_expected``.

    Section 3.3's interim policy for tables that fail the rule-of-thumb
    validity check: "In the meantime, we merely ignore cells with small
    expected value", justified by a support argument — a correlation
    carried only by a cell whose expectation is below 1 involves events
    too rare to act on.  With ``min_expected = 0`` this is the plain
    statistic.  Note the same section's caveat: on adversarial data the
    truncation can skew results arbitrarily.
    """
    if min_expected < 0:
        raise ValueError(f"min_expected must be non-negative, got {min_expected}")
    total = 0.0
    for observed, expected in table.observed_expected():
        if expected < min_expected:
            continue
        if expected == 0.0:
            if observed:
                raise ZeroDivisionError(
                    "observed count in a cell with zero expectation; "
                    "the independence model is degenerate for this table"
                )
            continue
        deviation = observed - expected
        total += deviation * deviation / expected
    return total


class CorrelationResult:
    """Outcome of a chi-squared correlation test on one itemset.

    Attributes:
        statistic: the chi-squared value.
        cutoff: the critical value the statistic was compared against.
        correlated: ``statistic >= cutoff``.
        p_value: upper-tail probability of the statistic at 1 dof (the
            paper's binomial-table convention, Appendix A).
        validity: rule-of-thumb diagnostics of the approximation (§3.3).

    A miner builds its results with :meth:`deferred`: the p-value and
    the validity are then computed on first access and cached, so a
    mine that yields tens of thousands of rules pays for neither until
    someone reads them.
    """

    __slots__ = ("statistic", "cutoff", "correlated", "_p_value", "_validity", "_df", "_table")

    def __init__(
        self,
        statistic: float,
        cutoff: float,
        correlated: bool,
        p_value: float,
        validity: ExpectedValueValidity,
    ) -> None:
        self.statistic = statistic
        self.cutoff = cutoff
        self.correlated = correlated
        self._p_value = p_value
        self._validity = validity
        self._df = 1
        self._table = None

    @classmethod
    def deferred(
        cls, statistic: float, test: "CorrelationTest", table: ContingencyTable
    ) -> "CorrelationResult":
        """``test``'s verdict on ``table``, whose statistic is already known.

        Equal to ``test(table)`` field for field (the statistic aside,
        which the caller may have computed another way), but the p-value
        and the validity wait until they are first read.
        """
        result = object.__new__(cls)
        result.statistic = statistic
        result.cutoff = test.cutoff
        result.correlated = statistic >= test.cutoff
        result._p_value = None
        result._validity = None
        result._df = test.df
        result._table = table
        return result

    @property
    def p_value(self) -> float:
        """Upper-tail probability of the statistic (computed once)."""
        if self._p_value is None:
            self._p_value = chi2_dist.sf(self.statistic, self._df)
        return self._p_value

    @property
    def validity(self) -> ExpectedValueValidity:
        """The table's §3.3 validity diagnostics (computed once)."""
        if self._validity is None:
            self._validity = self._table.validity()
            self._table = None
        return self._validity

    @property
    def reliable(self) -> bool:
        """Whether the chi-squared approximation can be trusted (§3.3)."""
        return self.validity.is_valid

    def _key(self) -> tuple:
        return (self.statistic, self.cutoff, self.correlated, self.p_value, self.validity)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CorrelationResult):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"CorrelationResult(statistic={self.statistic!r}, cutoff={self.cutoff!r}, "
            f"correlated={self.correlated!r}, p_value={self.p_value!r}, "
            f"validity={self.validity!r})"
        )


class CorrelationTest:
    """Chi-squared correlation test at a fixed significance level.

    The paper treats every binary contingency table as having one degree
    of freedom (Appendix A: "no matter what k is, the chi-squared
    statistic has only one degree of freedom"), which is also what makes
    the test upward closed; ``df`` is exposed for the multinomial
    generalisation.

    >>> from repro.core.itemsets import Itemset
    >>> from repro.core.contingency import ContingencyTable
    >>> # Example 1 of the paper: tea (bit 0) and coffee (bit 1).
    >>> table = ContingencyTable.from_percentages(
    ...     Itemset([0, 1]), {0b11: 20, 0b01: 5, 0b10: 70, 0b00: 5}, n=100)
    >>> test = CorrelationTest(significance=0.95)
    >>> round(test(table).statistic, 2)
    3.7
    """

    __slots__ = ("significance", "df", "cutoff", "min_expected_cell")

    def __init__(
        self,
        significance: float = 0.95,
        df: int = 1,
        min_expected_cell: float = 0.0,
    ) -> None:
        if not 0.0 < significance < 1.0:
            raise ValueError(f"significance must be in (0, 1), got {significance}")
        if df < 1:
            raise ValueError(f"degrees of freedom must be >= 1, got {df}")
        if min_expected_cell < 0:
            raise ValueError(
                f"min_expected_cell must be non-negative, got {min_expected_cell}"
            )
        self.significance = significance
        self.df = df
        self.cutoff = critical_value(significance, df)
        # §3.3's interim policy: ignore cells below this expectation.
        self.min_expected_cell = min_expected_cell

    def statistic(self, table: ContingencyTable) -> float:
        """The chi-squared value of ``table``."""
        if self.min_expected_cell > 0.0:
            return chi_squared_ignoring_small_cells(table, self.min_expected_cell)
        return chi_squared(table)

    def __call__(self, table: ContingencyTable) -> CorrelationResult:
        """Run the full test: statistic, decision, p-value, validity."""
        return CorrelationResult.deferred(self.statistic(table), self, table)

    def is_correlated(self, table: ContingencyTable) -> bool:
        """Significance decision only (the hot path of the miner)."""
        return self.statistic(table) >= self.cutoff

    def __repr__(self) -> str:
        return f"CorrelationTest(significance={self.significance}, df={self.df})"


@dataclass(frozen=True, slots=True)
class RobustResult:
    """Outcome of :func:`robust_independence_test`.

    ``method`` records which test produced the decision: ``"chi2"``,
    ``"fisher"`` (2x2 exact), or ``"permutation"`` (Monte-Carlo exact
    for wider tables).
    """

    method: str
    p_value: float
    correlated: bool
    statistic: float | None
    validity: ExpectedValueValidity


def robust_independence_test(
    table: ContingencyTable,
    significance: float = 0.95,
    permutation_rounds: int = 1000,
    seed: int = 0,
) -> RobustResult:
    """Independence test that degrades gracefully on small expectations.

    Implements the escalation §3.3 wishes for: use chi-squared where its
    approximation is trustworthy (the Moore rule of thumb), otherwise
    fall back to an exact test — Fisher's conditional test for 2x2
    tables, a Monte-Carlo exact test for wider ones.
    """
    validity = table.validity()
    alpha = 1.0 - significance
    if validity.is_valid:
        test = CorrelationTest(significance=significance)
        result = test(table)
        return RobustResult(
            method="chi2",
            p_value=result.p_value,
            correlated=result.correlated,
            statistic=result.statistic,
            validity=validity,
        )
    if table.n_items == 2:
        from repro.stats.fisher import fisher_exact_2x2

        a = round(table.observed(0b11))
        b = round(table.observed(0b01))
        c = round(table.observed(0b10))
        d = round(table.observed(0b00))
        fisher = fisher_exact_2x2(a, b, c, d)
        return RobustResult(
            method="fisher",
            p_value=fisher.p_value,
            correlated=fisher.p_value <= alpha,
            statistic=None,
            validity=validity,
        )
    from repro.stats.exact import permutation_p_value

    permutation = permutation_p_value(table, rounds=permutation_rounds, seed=seed)
    return RobustResult(
        method="permutation",
        p_value=permutation.p_value,
        correlated=permutation.p_value <= alpha,
        statistic=permutation.observed_statistic,
        validity=validity,
    )
