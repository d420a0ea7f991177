"""pytest plugin that makes every two-half path fork.

Loaded only on request, with ``tests`` on the import path::

    PYTHONPATH=src:tests python -m pytest -q -p fork_always

It sets the row and byte sizes from which ``dpgb.schema`` does the second
half of a file in a forked child to 0, so every histogram or records file
written or read, however small, takes the forked path.  Tests that set the
sizes themselves still do.
"""

from dpgb import schema


def pytest_configure(config):
    schema._FORK_ROWS = 0
    schema._FORK_BYTES = 0
