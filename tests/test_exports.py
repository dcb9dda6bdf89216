"""Public names are listed once, in the package's _EXPORTS table."""

from importlib import import_module

import pytest

import propval


@pytest.mark.parametrize("module", list(propval._EXPORTS))
def test_module_all_is_its_exports_entry(module):
    assert import_module(f"propval.{module}").__all__ == list(propval._EXPORTS[module])
