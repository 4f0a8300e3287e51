import concurrent.futures

import pytest


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run every process pool in-process instead; yields the list of the
    ``max_workers`` each pool was started with.  No worker process starts.
    ``samplers.ordered_map`` imports the pool class when it starts one, so
    the class is replaced where it is defined."""
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return sizes
