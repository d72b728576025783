import pytest

from metrics import MIN_BEYOND, Tally, percentile


def test_percentile_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 90) == 90
    assert percentile(reversed(samples), 90) == 90


def test_percentile_needs_ten_samples_beyond():
    assert percentile(range(100), 90) == 89  # exactly 10 samples above it
    with pytest.raises(ValueError, match="need 10"):
        percentile(range(99), 90)
    assert percentile(range(2 * MIN_BEYOND), 50) == MIN_BEYOND - 1
    with pytest.raises(ValueError):
        percentile(range(2 * MIN_BEYOND - 1), 50)


def test_percentile_rejects_q_out_of_range():
    for q in (0, 100, -5):
        with pytest.raises(ValueError):
            percentile(range(1000), q)


def test_tally_counts_failures_against_attempts():
    tally = Tally()
    tally.record(True, count=7)
    tally.record(False, count=3, note="mismatch")
    assert (tally.attempted, tally.failed) == (10, 3)
    assert tally.error_rate == pytest.approx(0.3)
    assert tally.success_rate == pytest.approx(0.7)
    assert tally.notes == ["mismatch"]


def test_tally_probes_enter_rate_not_failures():
    tally = Tally()
    tally.record(True, count=16)
    tally.record_probe(False)
    tally.record_probe(False)
    assert tally.failed == 0
    assert tally.error_rate == pytest.approx(2 / 18)

    total = Tally()
    total.merge(tally)
    total.merge(tally)
    assert (total.attempted, total.probes, total.probe_failed) == (32, 4, 4)
    assert total.error_rate == pytest.approx(2 / 18)


def test_empty_tally_has_no_errors():
    assert Tally().error_rate == 0.0
