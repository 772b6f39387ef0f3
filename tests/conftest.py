import pytest

from spectral_walks import rng


class Plans(list):
    """Every (workers, blocks) plan rng.block_plan returned while recording."""

    def all_split(self) -> bool:
        """True when at least one plan was built and each ran at least 2 blocks on at least 2 workers."""
        return bool(self) and all(workers >= 2 and len(blocks) >= 2 for workers, blocks in self)


@pytest.fixture
def split_blocks(monkeypatch):
    """A function that sets SPECTRAL_WALKS_THREADS and returns the Plans built from then on.

    Above one thread it also lets the process see two CPUs and shrinks
    rng.BLOCK to `block` paths, so a run of a few thousand paths splits
    across two workers as runs above BLOCK do in use; at one thread the
    default plan runs.
    """
    plans = Plans()
    plan = rng.block_plan
    monkeypatch.setattr(rng, "block_plan", lambda n_paths: plans.append(plan(n_paths)) or plans[-1])

    def split(threads="2", block=1000):
        plans.clear()
        monkeypatch.setenv("SPECTRAL_WALKS_THREADS", threads)
        if int(threads) > 1:
            monkeypatch.setattr(rng.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
            monkeypatch.setattr(rng, "BLOCK", block)
        return plans

    return split
