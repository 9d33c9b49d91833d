"""Fixtures of the whole suite, ``tests`` and ``bench`` alike."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def solver_library_cache(tmp_path_factory):
    """The compiled solver's cache (``XDG_CACHE_HOME``) in a directory of the
    session, so the suite writes nothing to the user's cache and builds the
    library at most once; subprocesses inherit it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield
