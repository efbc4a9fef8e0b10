import pytest

import stats


def test_self_times_subtract_direct_children_only():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child of root
        (2.0, 3.0, 1),  # grandchild: counts against its parent, not the root
        (5.0, 9.0, 0),  # second child of root
    ]
    assert stats.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_add_up_to_root_duration():
    spans = [(0.0, 8.0, -1), (0.5, 2.5, 0), (3.0, 7.0, 0), (3.5, 4.0, 2), (4.5, 6.0, 2)]
    assert sum(stats.self_times(spans)) == pytest.approx(8.0)


def test_tail_leaves_ten_samples_beyond():
    latencies = list(range(1, 101))  # 1..100
    value, percentile, n = stats.tail(latencies)
    assert value == 90
    assert sum(1 for x in latencies if x > value) == 10
    assert percentile == pytest.approx(90.0)
    assert n == 100


def test_tail_with_too_few_samples_is_the_maximum():
    assert stats.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_ratio_of_zero_base_is_none():
    assert stats.ratio(3, 0) is None
    assert stats.ratio(3, 4) == 0.75


def test_speed_factor_rescales_to_the_reference_speed():
    # Slices around the segment read 15 ms and 25 ms against a 10 ms reference:
    # the host ran at half the reference speed, so times are halved.
    assert stats.speed_factor(0.015, 0.025, 0.010) == pytest.approx(0.5)
    assert stats.speed_factor(0.010, 0.010, 0.010) == 1.0
