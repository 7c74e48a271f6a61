"""Every test runs with a parse cache of its own (``XDG_CACHE_HOME``), empty
when it starts, so no test reads or writes the user's cache and the first
load of each input file in a test parses it."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_parse_cache(tmp_path_factory):
    """The cache of fixtures wider than one test, set up before any test's own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("session-cache")))
        yield


@pytest.fixture(autouse=True)
def parse_cache(tmp_path_factory, monkeypatch):
    """The directory of this test's parse cache entries, ``denguewatch`` under
    its ``XDG_CACHE_HOME``."""
    home = tmp_path_factory.mktemp("cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home / "denguewatch"
