"""The package namespace: every module's public names, once each."""

import importlib

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
    assert len(hm.__all__) == 92
