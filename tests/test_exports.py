"""Every name a ``sasmot`` module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import sasmot

MODULES = ["sasmot"] + [
    f"sasmot.{info.name}" for info in pkgutil.iter_modules(sasmot.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names missing attributes"
