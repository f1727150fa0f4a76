"""The docstring examples of every ``okada`` module run and pass."""

import doctest
import importlib
import pkgutil

import pytest

import okada

MODULES = ["okada"] + [f"okada.{m.name}" for m in pkgutil.iter_modules(okada.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_docstring_examples_exist():
    counts = {name: doctest.testmod(importlib.import_module(name)).attempted for name in MODULES}
    assert sum(counts.values()) >= 14
    assert counts["okada.rewriting"] >= 4
