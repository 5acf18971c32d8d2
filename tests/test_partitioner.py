import math
import random

import pytest

from dynseq.partitioner import (Partition, partition_baseline,
                                partition_dynamic, partition_is_valid)


def test_sorted_sequence_one_part():
    vals = list(range(1, 20))
    for part in (partition_baseline(vals), partition_dynamic(vals, 0.8)):
        assert len(part) == 1
        assert part.directions == ["+"]
        assert partition_is_valid(vals, part)


def test_reverse_sorted_one_part():
    vals = list(range(20, 0, -1))
    for part in (partition_baseline(vals), partition_dynamic(vals, 0.8)):
        assert len(part) == 1
        assert part.directions == ["-"]
        assert partition_is_valid(vals, part)


def test_single_element():
    part = partition_baseline([7])
    assert len(part) == 1 and partition_is_valid([7], part)


def test_duplicates_rejected():
    with pytest.raises(ValueError):
        partition_baseline([1, 1, 2])
    with pytest.raises(ValueError):
        partition_dynamic([1, 1, 2], 0.8)


def test_baseline_first_part_on_worked_array():
    vals = [7, 2, 4, 1, 9, 6, 3, 5, 8]
    part = partition_baseline(vals)
    assert len(part.parts[0]) == 4
    assert partition_is_valid(vals, part)


def test_baseline_bound_random():
    rng = random.Random(51)
    for n in (10, 100, 1000, 4000):
        vals = rng.sample(range(1 << 30), n)
        part = partition_baseline(vals)
        assert partition_is_valid(vals, part)
        assert len(part) <= 2 * math.isqrt(n) + 1


def test_dynamic_partition_validity_and_ops():
    rng = random.Random(52)
    for n in (16, 128, 400):
        vals = rng.sample(range(1 << 30), n)
        part = partition_dynamic(vals, 0.8)
        assert partition_is_valid(vals, part)
        assert part.ops_issued == 4 * n
        assert len(part) <= 4 * math.isqrt(n) + 4


def test_validity_checker_catches_breaks():
    vals = [3, 1, 2]
    assert not partition_is_valid(vals, Partition([[1, 2]], ["+"]))       # not covering
    assert not partition_is_valid(vals, Partition([[1, 2], [2, 3]], ["-", "+"]))  # overlap
    assert not partition_is_valid(vals, Partition([[1, 2], [3]], ["+", "+"]))     # not monotone
    assert partition_is_valid(vals, Partition([[1, 2], [3]], ["-", "+"]))
