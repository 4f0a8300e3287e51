import pytest

from difflab import samplers


@pytest.fixture
def pool_sizes(monkeypatch):
    """Run every process pool in-process instead; yields the list of the
    ``max_workers`` each pool was started with.  No worker process starts."""
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

    monkeypatch.setattr(samplers, "ProcessPoolExecutor", InProcessPool)
    return sizes
