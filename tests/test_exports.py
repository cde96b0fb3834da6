"""Every name a module exports resolves on that module.

Tools that wrap a module's public functions look each `__all__` entry up
with getattr, so a name left behind after its definition is deleted breaks
them even when nothing else imports it.
"""

import importlib

import pytest

MODULES = ["lang", "application", "tensor", "symexpr", "forms", "evaluator", "record"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"tegi.{name}")
    missing = [n for n in mod.__all__ if not hasattr(mod, n)]
    assert missing == []
