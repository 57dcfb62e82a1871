import math
import sys
from dataclasses import replace

import pytest

from collapsim import preset, run_ensemble
from collapsim.sweep import SweepAxis, SweepRow, sweep


@pytest.fixture
def base():
    return replace(preset("tpp"), duration=2e-3)


class TestSweep:
    def test_single_value_equals_one_ensemble(self, base):
        rows = sweep(base, SweepAxis.RATE, [1e6], 2)
        ensemble = run_ensemble(base, 2)
        assert len(rows) == 1
        assert rows[0].mean_recovery_ratio == ensemble.mean_recovery_ratio
        assert rows[0].localized_fraction == ensemble.localized_fraction
        assert rows[0].error is None

    def test_unsorted_values_come_back_sorted(self, base):
        rows = sweep(base, SweepAxis.MASS, [1e-7, 1.7e-23, 1e-15], 1)
        assert [r.value for r in rows] == [1.7e-23, 1e-15, 1e-7]

    def test_recovery_ratio_monotone_in_mass(self, base):
        masses = [1.7e-23, 1e-19, 1e-15, 1e-11, 1e-7]
        rows = sweep(base, SweepAxis.MASS, masses, 2)
        ratios = [r.mean_recovery_ratio for r in rows]
        assert all(r is not None for r in ratios)
        assert all(b <= a for a, b in zip(ratios, ratios[1:]))
        assert ratios[0] > 10.0

    def test_smaller_mass_recovers_faster(self, base):
        rows = sweep(base, SweepAxis.MASS, [1.7e-23, 1e-7], 2)
        assert rows[0].mean_recovery_ratio > rows[1].mean_recovery_ratio

    def test_diameter_axis_sets_internal_radius(self, base):
        rows = sweep(base, SweepAxis.DIAMETER, [1e-8], 1)
        assert isinstance(rows[0], SweepRow)

    def test_empty_or_nonpositive_values_rejected(self, base):
        with pytest.raises(ValueError):
            sweep(base, SweepAxis.MASS, [], 1)
        for values in ([1.0, -2.0], [1e-20, math.nan], [math.inf]):
            with pytest.raises(ValueError, match="positive and finite"):
                sweep(base, SweepAxis.MASS, values, 1)

    def test_unknown_axis_refused_before_any_run(self, base, monkeypatch):
        ran = []
        # ``collapsim.sweep`` names the function; the module is in sys.modules.
        module = sys.modules["collapsim.sweep"]
        monkeypatch.setattr(module, "run_ensemble", lambda *args: ran.append(args))
        for axis in ("mass", None):
            with pytest.raises(ValueError, match="unknown sweep axis"):
                sweep(base, axis, [1e-20], 2)
        assert ran == []

    @pytest.mark.parametrize("n_replicas", [0, -2, True, 2.0, "2", None])
    def test_replicas_must_be_a_positive_integer(self, base, monkeypatch, n_replicas):
        """Refused once, by name, before any value runs: not an error per row."""
        ran = []
        module = sys.modules["collapsim.sweep"]
        monkeypatch.setattr(module, "run_ensemble", lambda *args: ran.append(args))
        with pytest.raises(ValueError, match=f"n_replicas .* got {n_replicas!r}"):
            sweep(base, SweepAxis.MASS, [1e-20, 1e-18], n_replicas)
        assert ran == []

    def test_per_value_failure_recorded_without_aborting(self, base):
        # a mass of 1e-308 blows up the spreading law immediately
        small = replace(base, initial_sigma=1e-15)
        rows = sweep(small, SweepAxis.MASS, [1e-308, 1.7e-23], 1)
        assert rows[0].value == 1e-308
        assert rows[0].error is not None
        assert rows[0].mean_recovery_ratio is None
        assert rows[1].error is None
