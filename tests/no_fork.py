"""pytest plugin that takes ``os.fork`` away.

Loaded only on request, with ``tests`` on the import path::

    PYTHONPATH=src:tests python -m pytest -q -p no_fork

It deletes ``os.fork`` before the tests are collected, as on a platform
that has none, so every two-half write and read, ``generate`` and ``sweep``
do both halves in one process, and tests that need a fork are skipped.
"""

import os


def pytest_configure(config):
    if hasattr(os, "fork"):
        del os.fork
