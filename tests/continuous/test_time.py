"""Tests for the virtual clock (discrete time domain)."""

import pytest

from repro.continuous.time import VirtualClock
from repro.errors import SerenaError


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0

    def test_custom_start(self):
        assert VirtualClock(5).now == 5

    def test_negative_start_rejected(self):
        with pytest.raises(SerenaError):
            VirtualClock(-1)

    def test_tick_advances(self):
        clock = VirtualClock()
        assert clock.tick() == 1
        assert clock.now == 1

    def test_only_now_and_tick(self):
        """The clock calls nobody: what an instant does is PEMS.tick."""
        public = {name for name in vars(VirtualClock) if not name.startswith("_")}
        assert public == {"now", "tick"}
