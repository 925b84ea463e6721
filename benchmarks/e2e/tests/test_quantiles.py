import pytest

from quantiles import highest_supported, iqr_share, median, percentile, samples_beyond, supported


def test_median_by_hand():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


def test_percentile_is_nearest_rank_and_always_a_measured_value():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 50) == 50
    assert percentile(values, 95) == 95
    assert percentile(values, 99) == 99
    assert percentile(values, 100) == 100
    assert percentile([10.0, 20.0, 30.0], 50) == 20.0
    assert percentile([10.0, 20.0, 30.0], 34) == 20.0  # ceil(1.02) = 2nd
    assert percentile([10.0, 20.0, 30.0], 33) == 10.0
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_ten_samples_beyond_rule():
    # 200 samples: 10 lie above the 95th percentile, only 2 above the 99th.
    assert samples_beyond(200, 95) == 10
    assert supported(200, 95)
    assert samples_beyond(200, 99) == 2
    assert not supported(200, 99)
    assert samples_beyond(199, 95) == 9
    assert not supported(199, 95)
    assert supported(1000, 99)


def test_highest_supported_percentile():
    assert highest_supported(15) is None  # p50 leaves 7 beyond
    assert highest_supported(20) == 50
    assert highest_supported(100) == 90
    assert highest_supported(200) == 95
    assert highest_supported(1000) == 99
    assert highest_supported(10_000) == 99.9


def test_iqr_share_matches_the_drivers_formula():
    import statistics

    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert iqr_share(values) == pytest.approx((q3 - q1) / 14.5)
