"""pytest plugin: run the collected test files in reverse order.

A test file must not pass only because another file ran before it
(a registry filled by one file's imports can hide a bug in another's).
CI runs tier-1 once more with this plugin loaded::

    PYTHONPATH=src:tools python -m pytest -x -q -p reverse_files

Tests inside one file keep their order.  Nothing is loaded unless
``-p reverse_files`` names it.
"""


def pytest_collection_modifyitems(items):
    rank = {}
    for item in items:
        rank.setdefault(item.path, len(rank))
    items.sort(key=lambda item: -rank[item.path])
