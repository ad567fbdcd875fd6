"""Every test starts with empty library memos, as every bench pass does,
and runs under a hang watchdog.

The memos are the `functools.lru_cache`s defined in the `eulerchar`
modules.  A memo filled by an earlier test would answer before a
monkeypatched helper is reached, so a test that patches one would not see
its call.

A test still running after HANG_SECONDS ends the whole run: `faulthandler`
prints the traceback of every thread to the terminal's stderr and exits
with status 1, so a hang fails the suite instead of stalling it.
"""

import faulthandler
import importlib
import os
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

# about ten times the slowest test (12.5 s on a 2-core host)
HANG_SECONDS = 120
_TERMINAL = pytest.StashKey[int]()


@pytest.fixture
def library_caches() -> dict:
    return dict(LIBRARY_CACHES)


@pytest.fixture(autouse=True)
def _empty_library_caches():
    for fn in LIBRARY_CACHES.values():
        fn.cache_clear()


def pytest_configure(config):
    # a copy of the terminal's stderr, taken while output capture is off:
    # during a test, fd 2 is the capture's temporary file, which exiting
    # would discard with the traceback in it
    config.stash[_TERMINAL] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[_TERMINAL])


@pytest.fixture(autouse=True)
def _hang_watchdog(request):
    faulthandler.dump_traceback_later(
        HANG_SECONDS, exit=True, file=request.config.stash[_TERMINAL]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
