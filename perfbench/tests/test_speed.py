"""Tests of the speed meter's rescaling, with hand-made samples."""

import signal

import pytest

from speed import REF_NOMINAL_S, SpeedMeter


def _meter(samples):
    meter = SpeedMeter()
    meter.samples = list(samples)
    meter._starts = [s[0] for s in samples]
    return meter


def test_pieces_are_weighted_by_the_references_around_them_and_samples_count_nothing():
    slow = 2 * REF_NOMINAL_S
    meter = _meter([(0, 10, REF_NOMINAL_S), (100, 110, slow)])
    # [10, 100) at the mean of both references, [110, 200) at the slow one.
    expected_ns = 90 * REF_NOMINAL_S / (0.5 * (REF_NOMINAL_S + slow)) + 90 * 0.5
    assert meter.rescale(0, 200) == pytest.approx(expected_ns / 1e9)
    assert meter.raw_s == pytest.approx(180 / 1e9)
    assert meter.rescale(2, 8) == 0.0
    assert meter.rescale(20, 30) == pytest.approx(10 * REF_NOMINAL_S / (0.5 * (REF_NOMINAL_S + slow)) / 1e9)


def test_meter_restores_the_alarm_handler():
    before = signal.getsignal(signal.SIGALRM)
    with SpeedMeter() as meter:
        assert signal.getsignal(signal.SIGALRM) is not before
        assert len(meter.samples) == 1
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
