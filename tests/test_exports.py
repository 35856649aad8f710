import importlib

import pytest

PACKAGES = ["soke.grad", "soke.deto", "soke.amg", "soke.metrics", "soke.motion"]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
