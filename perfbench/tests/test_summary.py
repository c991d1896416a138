import pytest

from summary import MIN_BEYOND, Span, breakdown, pass_time, self_times, tail_percentile


class TestTailPercentile:
    def test_needs_ten_samples_beyond(self):
        assert tail_percentile(list(range(99)), 90) is None

    def test_reports_at_the_threshold(self):
        samples = list(range(100, 0, -1))
        value, beyond = tail_percentile(samples, 90)
        assert (value, beyond) == (90, MIN_BEYOND)

    def test_nearest_rank_on_larger_runs(self):
        value, beyond = tail_percentile([float(i) for i in range(1, 201)], 90)
        assert (value, beyond) == (180.0, 20)

    def test_higher_percentiles_need_more_samples(self):
        assert tail_percentile(list(range(999)), 99) is None
        assert tail_percentile(list(range(1000)), 99) == (989, 10)


def test_pass_time_sums_the_median_of_each_config():
    # Config 0 has one slow outlier; config 1 is called twice.
    timed = [(0, 1.0), (1, 10.0), (0, 1.2), (1, 12.0), (0, 9.0)]
    assert pass_time(timed) == pytest.approx(1.2 + 11.0)


def span(id, layer, start, end, parent):
    return Span(id, f"{layer}.f{id}", layer, start, end, parent, 0)


# root [0, 10] holds A [1, 4] (which holds C [2, 3]) and B [5, 8].
NESTED = [
    span(0, "cli", 0.0, 10.0, None),
    span(1, "mixture", 1.0, 4.0, 0),
    span(2, "metrics", 5.0, 8.0, 0),
    span(3, "mixture", 2.0, 3.0, 1),
]


def test_self_time_is_duration_minus_children():
    assert self_times(NESTED) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_overlapping_children_are_covered_once():
    spans = [span(0, "cli", 0.0, 10.0, None), span(1, "a", 1.0, 4.0, 0), span(2, "b", 3.0, 6.0, 0)]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_children_are_clipped_to_the_parent():
    spans = [span(0, "cli", 0.0, 2.0, None), span(1, "a", 1.0, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_breakdown_adds_up_and_reports_unattributed_root_time():
    split = breakdown(NESTED)
    assert split.total == 10.0
    assert split.layer_self == {"cli": 4.0, "mixture": 3.0, "metrics": 3.0}
    assert sum(split.layer_self.values()) == split.total
    assert split.unattributed == 4.0
    assert split.name_self["mixture.f3"] == 1.0


def test_breakdown_needs_one_root():
    with pytest.raises(ValueError):
        breakdown(NESTED[1:] + [span(4, "cli", 0.0, 1.0, None), span(5, "cli", 2.0, 3.0, None)])
