"""The package namespace: every module's public names, once each, and the
layers imported on first use."""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

import holomeans as hm

MODULES = ("asymptotics", "contact", "density", "dpp", "errors", "fields", "geometry",
           "means", "pdesystem")
LAYERS = ("holomeans.asymptotics", "holomeans.contact", "holomeans.dpp")


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


def _layers_loaded_after(statement):
    """The layer modules in ``sys.modules`` after ``statement`` in a fresh interpreter."""
    code = (f"import sys; {statement}; "
            f"print(' '.join(m for m in {LAYERS!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(hm.__file__).parent.parent))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return tuple(done.stdout.split())


@pytest.mark.parametrize("statement, loaded", (
    ("import holomeans", ()),
    ("import holomeans; holomeans.dpp_solve", ("holomeans.dpp",)),
    ("import holomeans; holomeans.holomorphy_verdict", ("holomeans.asymptotics",)),
    ("from holomeans import *", LAYERS),
    ("import holomeans.cli", LAYERS),
))
def test_the_verdict_and_dpp_layers_load_on_first_use(statement, loaded):
    assert _layers_loaded_after(statement) == loaded


def test_the_lazy_name_map_is_the_layers_exports():
    for module, names in hm._LAZY_MODULES.items():
        assert names == tuple(importlib.import_module(f"holomeans.{module}").__all__)
    assert len(hm._LAZY) == 34


def test_a_resolved_name_is_bound_in_the_package():
    hm.sweep  # noqa: B018
    assert vars(hm)["sweep"] is importlib.import_module("holomeans.asymptotics").sweep
    for name in ("asymptotics", "contact", "dpp"):
        assert getattr(hm, name) is importlib.import_module(f"holomeans.{name}")


def test_dir_lists_every_public_name_and_unknown_names_raise():
    listed = dir(hm)
    assert set(hm.__all__) <= set(listed)
    assert {"asymptotics", "contact", "dpp", "means"} <= set(listed)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        hm.no_such_name  # noqa: B018
