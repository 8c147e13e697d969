"""Lint-style meta-test: public package exports stay aligned.

Three serving-adjacent packages (:mod:`repro.serving`, :mod:`repro.robustness`,
:mod:`repro.adaptive`) resolve their exports lazily through a PEP 562
``__getattr__`` over an ``_EXPORTS`` name->module table, while
:mod:`repro.api`, :mod:`repro.core`, :mod:`repro.features` and
:mod:`repro.ml` import eagerly.  Either way, the contract is the same:

* every name in ``__all__`` actually resolves (no stale table entries);
* ``__all__`` carries no duplicates and matches the lazy table exactly;
* ``dir(package)`` advertises every export (tooling completeness);
* a bogus attribute still raises :class:`AttributeError` (PEP 562
  ``__getattr__`` must not swallow the miss).
"""

from __future__ import annotations

import importlib

import pytest

#: Packages with a public export surface, lazy (PEP 562) or eager.
_PACKAGES = [
    "repro.api",
    "repro.core",
    "repro.features",
    "repro.ml",
    "repro.serving",
    "repro.robustness",
    "repro.adaptive",
]
_LAZY_PACKAGES = ["repro.serving", "repro.robustness", "repro.adaptive"]


@pytest.fixture(params=_PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_export_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, f"{package.__name__}.{name}"


def test_all_has_no_duplicates(package):
    assert len(package.__all__) == len(set(package.__all__))


def test_dir_advertises_every_export(package):
    missing = set(package.__all__) - set(dir(package))
    assert not missing, f"{package.__name__}: dir() hides {sorted(missing)}"


def test_unknown_attribute_raises(package):
    with pytest.raises(AttributeError):
        package.no_such_export_anywhere


@pytest.mark.parametrize("name", _LAZY_PACKAGES)
def test_lazy_table_matches_all(name):
    package = importlib.import_module(name)
    assert sorted(package.__all__) == sorted(package._EXPORTS)


@pytest.mark.parametrize("name", _LAZY_PACKAGES)
def test_lazy_table_points_at_the_real_provider(name):
    """Each table entry names a module that actually defines the export."""
    package = importlib.import_module(name)
    for export, module_name in package._EXPORTS.items():
        if not module_name.startswith("repro."):
            module_name = f"{name}.{module_name}"
        module = importlib.import_module(module_name)
        assert hasattr(module, export), f"{module_name} does not define {export}"
        assert export in getattr(module, "__all__", [export]), (
            f"{module_name}.{export} is not public in its provider"
        )


def test_serving_reexports_service_stats_types():
    """Satellite contract: StatsSnapshot/ServiceStats reachable via serving."""
    import repro.api.service as service
    import repro.serving as serving

    assert serving.StatsSnapshot is service.StatsSnapshot
    assert serving.ServiceStats is service.ServiceStats
