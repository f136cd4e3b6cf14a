import importlib

import pytest

# perfbench/spans.py wraps these by name; a rename would make their layer
# metrics read 0 and be listed as absent instead of failing
TRACED = ("rsolve._raw_nullvector", "rsolve.solve_intertwiner", "rsolve.normalize_hw",
          "rsolve.apply_kappa", "rsolve.RCache.get", "cli.serialize_reports")


@pytest.mark.parametrize("name", TRACED)
def test_traced_name_exists(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"qkzkit.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
