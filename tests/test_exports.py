"""Every name a rydgate module lists in ``__all__`` exists in it."""

import importlib
import pkgutil

import rydgate


def test_every_all_entry_is_defined():
    names = ["rydgate"] + [f"rydgate.{m.name}" for m in pkgutil.iter_modules(rydgate.__path__)]
    assert "rydgate.gate" in names
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{a}" for a in getattr(module, "__all__", ()) if not hasattr(module, a)]
    assert missing == []
