"""Fixtures shared by several test files."""

import multiprocessing

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """The size of every worker pool asked for while the test runs; the
    pool runs its tasks in this process and starts none."""
    sizes = []

    class RecordingPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap_unordered(self, fn, items, chunksize=1):
            return map(fn, items)

    # hecke_oracle imports multiprocessing only when it starts a pool, so
    # the pool is patched where that import finds it.
    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    return sizes
