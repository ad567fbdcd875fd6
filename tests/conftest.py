"""Every test starts with empty library memos, as every bench pass does.

The memos are the `functools.lru_cache`s defined in the `eulerchar`
modules.  A memo filled by an earlier test would answer before a
monkeypatched helper is reached, so a test that patches one would not see
its call.
"""

import importlib
import pkgutil

import pytest

import eulerchar


def _library_caches() -> dict:
    """module.name -> memoized function, for every lru_cache that an
    eulerchar module defines (an imported one is listed where it is
    defined)."""
    caches = {}
    for info in pkgutil.iter_modules(eulerchar.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"eulerchar.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                caches[f"{info.name}.{name}"] = value
    return caches


LIBRARY_CACHES = _library_caches()


@pytest.fixture
def library_caches() -> dict:
    return dict(LIBRARY_CACHES)


@pytest.fixture(autouse=True)
def _empty_library_caches():
    for fn in LIBRARY_CACHES.values():
        fn.cache_clear()
