"""Partition-barrier epochs: how a partition span is chunked."""

from repro.resilience import partition_ranges


class TestPartitionRanges:
    def test_even_chunks(self):
        assert partition_ranges(0, 7, 4) == [(0, 3), (4, 7)]

    def test_uneven_tail(self):
        assert partition_ranges(0, 9, 4) == [(0, 3), (4, 7), (8, 9)]

    def test_single_partition(self):
        assert partition_ranges(5, 5, 4) == [(5, 5)]

    def test_empty_span(self):
        assert partition_ranges(3, 2, 4) == []

    def test_zero_interval_means_one_epoch(self):
        assert partition_ranges(0, 99, 0) == [(0, 99)]

    def test_covers_span_exactly_once(self):
        ranges = partition_ranges(2, 31, 7)
        covered = [
            p for lo, hi in ranges for p in range(lo, hi + 1)
        ]
        assert covered == list(range(2, 32))
