"""The reference clock's arithmetic, on made-up slice times."""

import pytest

from dblbench.clock import REFERENCE_SLICE_S, Clock


def _clock(starts, took):
    c = Clock()
    c.starts = list(starts)
    c.ends = [s + t for s, t in zip(starts, took)]
    return c


def test_slices_at_reference_speed_leave_wall_time_less_the_slices():
    c = _clock([0.0, 1.0, 2.0], [REFERENCE_SLICE_S] * 3)
    assert c.seconds(0.5, 0.7) == pytest.approx(0.2)
    assert c.seconds(0.5, 1.5) == pytest.approx(1.0 - REFERENCE_SLICE_S)
    assert c.seconds(0.0 + REFERENCE_SLICE_S, 2.0) == pytest.approx(2.0 - 2 * REFERENCE_SLICE_S)


def test_each_gap_is_scaled_by_the_two_slices_around_it():
    # slices twice as slow around the first gap, at reference speed around
    # the last one: the mean of the two bounding slices sets each gap's scale
    c = _clock([0.0, 1.0, 2.0], [2 * REFERENCE_SLICE_S, 2 * REFERENCE_SLICE_S, REFERENCE_SLICE_S])
    assert c.seconds(0.25, 0.75) == pytest.approx(0.25)
    assert c.seconds(1.25, 1.75) == pytest.approx(0.5 / 1.5)
    assert c.seconds(0.75, 1.25) == pytest.approx(0.125 + (0.25 - 2 * REFERENCE_SLICE_S) / 1.5)


def test_intervals_beyond_the_slices_use_the_nearest_one():
    c = _clock([1.0, 2.0], [2 * REFERENCE_SLICE_S, REFERENCE_SLICE_S])
    assert c.seconds(0.0, 0.5) == pytest.approx(0.25)
    assert c.seconds(3.0, 3.5) == pytest.approx(0.5)


def test_a_timer_signal_inside_a_slice_adds_no_slice(monkeypatch):
    c = Clock()
    monkeypatch.setattr("dblbench.clock._slice", lambda: c._calibrate())
    c._calibrate()
    assert len(c.starts) == len(c.ends) == 1
