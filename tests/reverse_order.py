"""A pytest plugin that runs the collected tests in reverse order.

A test that passes only because an earlier test warmed an in-process memo
fails here.  Not part of tier-1; from the repository root:

    PYTHONPATH=src python -m pytest -q -p tests.reverse_order
"""


def pytest_collection_modifyitems(items):
    items.reverse()
