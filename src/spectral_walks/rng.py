"""Counter-based pseudo-randomness for reproducible path simulation.

Every uniform draw is a pure function of (seed, path index, step index),
so results do not depend on chunking, thread count, or evaluation order.
The mixer is the SplitMix64 finalizer; the per-path keys are exactly the
output stream of a SplitMix64 generator seeded with the run seed, and
the per-step draws are the stream of a generator seeded with the key.

Both simulators split their paths by one block plan and run the blocks
through run_blocks; because streams are keyed by path, the plan changes
wall time only, never the drawn values.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["mix64", "derive_key", "path_keys", "step_bits", "step_uniforms", "uniform", "block_plan", "run_blocks"]

# a worker thread gets at least this many paths, so tiny blocks never pay for a thread
MIN_BLOCK = 1024

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# to 2^-53, so draws land in [0, 1) with full double precision
_SCALE = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= _MASK
    z = (z ^ (z >> 30)) * _M1 & _MASK
    z = (z ^ (z >> 27)) * _M2 & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, index: int) -> int:
    """Key for stream number `index` under `seed`.

    Equals the (index+1)-th output of SplitMix64 seeded with `seed`.
    """
    return mix64(seed + (index + 1) * _GOLDEN)


def _mix_array(z: np.ndarray) -> np.ndarray:
    # uint64 arithmetic wraps, which is exactly the mod-2^64 we want
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_M1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_M2)
    return z ^ (z >> np.uint64(31))


def path_keys(seed: int, first: int, count: int) -> np.ndarray:
    """Keys for paths first .. first+count-1 as a uint64 array."""
    idx = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK) + idx * np.uint64(_GOLDEN)
    return _mix_array(z)


def step_bits(keys: np.ndarray, step: int) -> np.ndarray:
    """The raw 64-bit draw per key for the given step index, as uint64."""
    return _mix_array(keys + np.uint64(((step + 1) * _GOLDEN) & _MASK))


def step_uniforms(keys: np.ndarray, step: int) -> np.ndarray:
    """One uniform in [0, 1) per key for the given step index: the top 53 bits of step_bits."""
    return (step_bits(keys, step) >> np.uint64(11)).astype(np.float64) * _SCALE


def uniform(seed: int, path: int, step: int) -> float:
    """Scalar route to the same draw: matches step_uniforms(path_keys(...))."""
    key = derive_key(seed, path)
    return (mix64(key + (step + 1) * _GOLDEN) >> 11) * _SCALE


def block_plan(n_paths: int) -> list:
    """Contiguous (first, count) path blocks of near-equal size, one per worker thread.

    SPECTRAL_WALKS_THREADS asks for a worker count (default 1).  It is
    capped at the CPUs this process may run on and at one worker per
    MIN_BLOCK paths, so no block is smaller than MIN_BLOCK unless the
    whole run is.
    """
    env = os.environ.get("SPECTRAL_WALKS_THREADS", "").strip()
    workers = max(1, int(env)) if env else 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, cpus, max(1, n_paths // MIN_BLOCK))
    base, extra = divmod(n_paths, workers)
    return [(i * base + min(i, extra), base + (i < extra)) for i in range(workers)]


def run_blocks(block, n_paths: int) -> None:
    """Call block(first, count) for every block of the plan, on threads if there are several."""
    plan = block_plan(n_paths)
    if len(plan) == 1:
        block(*plan[0])
        return
    with ThreadPoolExecutor(max_workers=len(plan)) as pool:
        for fut in [pool.submit(block, first, count) for first, count in plan]:
            fut.result()
