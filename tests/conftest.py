"""Shared test fixtures."""

import pytest

from sqzq.pdm import PRESETS, SemiclassicalModel, classical_integrate, semiclassical_integrate


def _run_preset(name):
    """The trajectory of a named preset at the integrators' default settings."""
    preset = PRESETS[name]
    if preset.kind == "classical":
        return classical_integrate(preset.model, preset.init, preset.t_span)
    semi = SemiclassicalModel(preset.model, preset.modes)
    return semiclassical_integrate(semi, preset.init, preset.t_span)


@pytest.fixture
def run_preset():
    return _run_preset
