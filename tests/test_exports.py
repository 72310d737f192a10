"""Every name a rydgate module lists in ``__all__`` exists in it, and every
demo script still imports against the public API."""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import rydgate

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def test_every_all_entry_is_defined():
    names = ["rydgate"] + [f"rydgate.{m.name}" for m in pkgutil.iter_modules(rydgate.__path__)]
    assert "rydgate.gate" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{a}" for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_without_running(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
