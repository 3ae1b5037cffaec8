from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanisaki.partitions import (
    Partition,
    PartitionError,
    check_subset,
    enumerate_partitions,
    enumerate_subsets,
    garsia_procesi_series,
    parse_partition,
)


def dual_oracle(parts):
    """Count-based conjugate: eta_j = #{i : parts[i] >= j}."""
    if not parts:
        return ()
    return tuple(
        sum(1 for p in parts if p >= j) for j in range(1, parts[0] + 1)
    )


def partition_count_oracle(n):
    """Classical p(n) by the bounded-largest-part recurrence."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for m in range(1, n + 1):
        for k in range(1, n + 1):
            table[m][k] = table[m][k - 1] + (table[m - k][k] if m >= k else 0)
    return table[n][n]


class TestDual:
    def test_large_reference_partition(self):
        assert Partition((5, 4, 4, 2, 2, 2, 1)).dual().parts == (7, 6, 3, 3, 1)

    def test_column(self):
        assert Partition((1,) * 6).dual().parts == (6,)

    def test_against_count_oracle(self):
        lam = Partition((2, 1))
        assert lam.dual().parts == dual_oracle(lam.parts) == (2, 1)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_involutive_exhaustive(self, n):
        for lam in enumerate_partitions(n):
            assert lam.dual().dual() == lam
            assert lam.dual().parts == dual_oracle(lam.parts)


class TestPFunction:
    def test_reference_values(self):
        dual = Partition((5, 4, 4, 2, 2, 2, 1)).dual()
        assert [dual.p_function(s) for s in (15, 16, 17, 18, 19, 20)] == [0, 1, 4, 7, 13, 20]

    def test_full_sum(self):
        for lam in enumerate_partitions(6):
            assert lam.p_function(lam.n) == lam.n

    def test_monotone_and_telescoping(self):
        for lam in enumerate_partitions(7):
            n = lam.n
            padded = lam.parts + (0,) * (n - len(lam.parts))
            values = [lam.p_function(s) for s in range(1, n + 1)]
            assert values == sorted(values)
            # the s smallest of n parts summing to n sum to at most s
            assert all(values[s - 1] <= s for s in range(1, n + 1))
            for s in range(2, n + 1):
                assert values[s - 1] - values[s - 2] == padded[n - s]

    def test_out_of_range(self):
        with pytest.raises(PartitionError):
            Partition((2, 1)).p_function(0)
        with pytest.raises(PartitionError):
            Partition((2, 1)).p_function(4)


class TestRankAndDimension:
    @pytest.mark.parametrize(
        "parts,rank", [((3,), 1), ((2, 1), 3), ((1, 1, 1), 6)]
    )
    def test_multinomial_examples(self, parts, rank):
        assert Partition(parts).multinomial_rank() == rank

    def test_multinomial_factorial_identity(self):
        for n in range(1, 9):
            for lam in enumerate_partitions(n):
                prod = 1
                for p in lam.parts:
                    prod *= factorial(p)
                assert lam.multinomial_rank() * prod == factorial(n)

    @pytest.mark.parametrize(
        "parts,dim", [((4,), 0), ((1, 1, 1), 3), ((2, 1), 1)]
    )
    def test_springer_dimension_examples(self, parts, dim):
        assert Partition(parts).springer_dimension() == dim

    def test_extremes(self):
        for n in range(1, 9):
            assert Partition((n,)).springer_dimension() == 0
            assert Partition((1,) * n).springer_dimension() == n * (n - 1) // 2

    def test_garsia_procesi_series_has_the_rank_and_ends_at_the_dimension(self):
        # the filtration check compares only per degree: a series equal to
        # this one then has the multinomial rank and nothing past dim
        for n in range(1, 13):
            for lam in enumerate_partitions(n):
                series = garsia_procesi_series(lam)
                assert sum(series) == lam.multinomial_rank(), lam
                assert len(series) == lam.springer_dimension() + 1, lam
                assert series[-1] != 0, lam


class TestSubsets:
    def test_listing(self):
        assert list(enumerate_subsets(3, 2)) == [(1, 2), (1, 3), (2, 3)]

    def test_full(self):
        assert list(enumerate_subsets(4, 4)) == [(1, 2, 3, 4)]

    def test_count(self):
        assert sum(1 for _ in enumerate_subsets(6, 3)) == comb(6, 3)

    def test_lazy_and_valid(self):
        stream = enumerate_subsets(7, 3)
        first = next(iter(stream))
        assert first == (1, 2, 3)
        assert check_subset(first, 7) == (1, 2, 3)

    def test_errors(self):
        with pytest.raises(PartitionError):
            list(enumerate_subsets(3, 0))
        with pytest.raises(PartitionError):
            list(enumerate_subsets(3, 4))
        with pytest.raises(PartitionError):
            check_subset((2, 2), 3)
        with pytest.raises(PartitionError, match="position 1"):
            check_subset((1.5, 2), 3)


class TestEnumeratePartitions:
    def test_n3(self):
        assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]

    @pytest.mark.parametrize("n,count", [(4, 5), (7, 15)])
    def test_counts(self, n, count):
        parts = enumerate_partitions(n)
        assert len(parts) == count == partition_count_oracle(n)

    def test_reverse_lex_no_duplicates(self):
        for n in range(1, 10):
            seq = [p.parts for p in enumerate_partitions(n)]
            assert len(set(seq)) == len(seq)
            assert seq == sorted(seq, reverse=True)
            assert all(sum(p) == n for p in seq)


class TestParsing:
    def test_round_trip(self):
        lam = parse_partition("5,4,4,2,2,2,1")
        assert lam.parts == (5, 4, 4, 2, 2, 2, 1)
        assert str(lam) == "5,4,4,2,2,2,1"

    def test_rejects_increase_with_position(self):
        with pytest.raises(PartitionError, match="part 3"):
            parse_partition("3,1,2")

    def test_rejects_garbage(self):
        with pytest.raises(PartitionError):
            parse_partition("")
        with pytest.raises(PartitionError):
            parse_partition("2,x")
        with pytest.raises(PartitionError):
            parse_partition("0")
        with pytest.raises(PartitionError, match="part 1"):
            parse_partition("1_0")
        with pytest.raises(PartitionError, match="part 1"):
            Partition((2.5, 1))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.integers(min_value=1, max_value=9), min_size=1, max_size=8))
def test_dual_involution_property(parts):
    lam = Partition(tuple(sorted(parts, reverse=True)))
    assert lam.dual().dual() == lam
    assert lam.dual().n == lam.n
