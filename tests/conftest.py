"""Fixtures shared by the test modules."""

import pytest

from helpers import cold_memos


@pytest.fixture
def fresh_memos():
    """Cold process-wide state for one test: every memo empty and every
    function cache cleared (``helpers.cold_memos``), all restored after."""
    with cold_memos():
        yield
