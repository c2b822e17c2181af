"""The public surface: every exported name resolves, and removed names stay
gone, so a stale export fails here rather than in a user's import."""

import importlib
import pkgutil

import pytest

import transdim

MODULES = ["transdim"] + [f"transdim.{m.name}" for m in pkgutil.iter_modules(transdim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    # the command line exports only through ``main`` and declares no list
    exported = getattr(module, "__all__", None) if name != "transdim.cli" else ["main"]
    assert exported, f"{name} has no __all__"
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize(
    "name, attr",
    [
        ("transdim", "indicator_from_allocation"),
        ("transdim", "labeled_joint_log_density"),
        ("transdim.model", "indicator_from_allocation"),
        ("transdim.model", "labeled_joint_log_density"),
        ("transdim.diagnostics", "intensity_curve"),
    ],
)
def test_removed_names_stay_gone(name, attr):
    assert not hasattr(importlib.import_module(name), attr)
