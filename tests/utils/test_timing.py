"""Tests for the wall timer."""

import time

import pytest

from repro.utils.timing import wall_timer


class TestWallTimer:
    def test_measures_positive_elapsed(self):
        with wall_timer() as elapsed:
            sum(range(1000))
        assert elapsed["seconds"] >= 0.0

    def test_covers_at_least_the_time_slept(self):
        with wall_timer() as elapsed:
            time.sleep(0.01)
        assert elapsed["seconds"] >= 0.01

    def test_records_the_elapsed_time_when_the_body_raises(self):
        with pytest.raises(RuntimeError):
            with wall_timer() as elapsed:
                time.sleep(0.01)
                raise RuntimeError("body failed")
        assert elapsed["seconds"] >= 0.01
