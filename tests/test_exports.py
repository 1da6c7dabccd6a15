import importlib

import pytest

MODULES = ["analytics", "schedule", "noise", "propagator", "ensemble", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a deletion that leaves a stale __all__ entry breaks "import *"
    module = importlib.import_module(f"berrydd.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    namespace = {}
    exec(f"from berrydd.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()
