"""Every name a ``repro`` module lists in ``__all__`` is an attribute of it.

A stale string in ``__all__`` only fails on ``from module import *``, which
nothing else in the test-suite does.
"""

import importlib
import pkgutil

import repro


def test_every_all_name_resolves():
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
    ]
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [
            f"{name}.{attr}"
            for attr in getattr(module, "__all__", ())
            if not hasattr(module, attr)
        ]
    assert not missing, f"__all__ names that do not resolve: {missing}"
