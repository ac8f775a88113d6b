"""The package namespace: every module's public names, once each."""

import importlib

import pytest

import holomeans as hm

MODULES = ("asymptotics", "contact", "density", "dpp", "errors", "fields", "geometry",
           "means", "pdesystem")


def test_package_exports_exactly_the_module_exports():
    names = [name for m in MODULES for name in importlib.import_module(f"holomeans.{m}").__all__]
    assert len(names) == len(set(names))
    assert len(hm.__all__) == len(set(hm.__all__))
    assert set(hm.__all__) == set(names)


def test_every_exported_name_resolves_to_its_module_object():
    for m in MODULES:
        module = importlib.import_module(f"holomeans.{m}")
        for name in module.__all__:
            assert getattr(hm, name) is getattr(module, name), name


def test_conjugate_validation_and_fit_names_are_exported():
    for name in ("young_conjugate", "CheckResult", "ValidationReport", "fit_model_coefficient"):
        assert name in hm.__all__
    assert len(hm.__all__) == 87


@pytest.mark.parametrize("config, field", (
    (hm.SweepConfig, "solver"),
    (hm.DppConfig, "solver"),
    (hm.DppConfig, "divergence_window"),
    (hm.DppConfig, "divergence_factor"),
    (hm.SweepConfig, "node_count"),
    (hm.SweepConfig, "min_successes"),
    (hm.DppConfig, "node_count"),
    (hm.DppConfig, "zero_policy"),
))
def test_retired_solver_settings_are_module_constants_not_config_fields(config, field):
    # The Newton budget, the divergence detector, the circle node count
    # (``geometry``) and the least usable radii of a sweep (``asymptotics``)
    # are module constants; a sweep always skips dead nodes.  No config
    # carries them.
    assert not hasattr(hm, "SolverConfig")
    with pytest.raises(TypeError, match=field):
        config(radius=0.2, **{field: 1}) if config is hm.DppConfig else config(**{field: 1})
