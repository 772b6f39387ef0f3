"""Counter-based pseudo-randomness for reproducible path simulation.

Every uniform draw is a pure function of (seed, path index, step index),
so results do not depend on chunking, thread count, or evaluation order.
The mixer is the SplitMix64 finalizer; the per-path keys are exactly the
output stream of a SplitMix64 generator seeded with the run seed, and
the per-step draws are the stream of a generator seeded with the key.

Both simulators split their paths by one block plan and run the blocks
through run_blocks; because streams are keyed by path, the plan changes
wall time only, never the drawn values.  A run of n paths becomes
contiguous, near-equal blocks of at most BLOCK paths, as many as the
smallest multiple of the worker count that keeps them that small, so a
run of at most BLOCK paths stays on the calling thread.  BLOCK is not
a measured crossover.  On a shared 2-vCPU host the ratio of 1-thread to
2-thread wall time of solenoid_walk at 320000 paths (6 blocks, 20 steps
from level 10) read 0.96 for the half walk and 0.97 for the four-tap
walk in one set of runs, and 0.95-1.31 and 1.47-1.77 in a later one
(medians of 5 runs, three alternations each), while at 40000 paths, one
block on the calling thread either way, it read 0.97-1.25.  So what two
threads buy depends on the load of the host more than on the run size,
and BLOCK only caps a block's working set.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

__all__ = ["mix64", "derive_key", "path_keys", "step_bits", "step_uniforms", "uniform", "block_plan", "run_blocks"]

# the most paths in one block; see the module docstring for what was measured about it
BLOCK = 1 << 16

_MASK = (1 << 64) - 1  # also the largest seed: a wider one would alias a seed of the range modulo 2^64
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


def _check_seed(seed: int) -> int:
    """seed itself when 0 <= seed < 2^64; ValueError naming it otherwise."""
    if not 0 <= seed <= _MASK:
        raise ValueError(f"seed {seed!r} is outside 0 <= seed < 2^64")
    return seed


def derive_key(seed: int, index: int) -> int:
    """Key for stream number `index` under `seed`, 0 <= seed < 2^64.

    Equals the (index+1)-th output of SplitMix64 seeded with `seed`.
    """
    return mix64(_check_seed(seed) + (index + 1) * _GOLDEN)


def _mix_in_place(z: np.ndarray) -> np.ndarray:
    """Apply the SplitMix64 finalizer to every entry of the uint64 array z, writing over z, and return z.

    Each round's shift goes into one temporary, so a call allocates that
    array alone.  path_keys and step_bits pass arrays they have just
    built, so no array of their callers is written.  uint64 arithmetic
    wraps, which is exactly the mod-2^64 we want.
    """
    tmp = z >> np.uint64(30)
    z ^= tmp
    z *= np.uint64(_M1)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_M2)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp
    return z


def path_keys(seed: int, first: int, count: int) -> np.ndarray:
    """Keys for paths first .. first+count-1 under seed, 0 <= seed < 2^64, as a uint64 array."""
    seed = np.uint64(_check_seed(seed))
    idx = np.arange(first + 1, first + count + 1, dtype=np.uint64)
    idx *= np.uint64(_GOLDEN)
    idx += seed
    return _mix_in_place(idx)


def step_bits(keys: np.ndarray, step: int) -> np.ndarray:
    """The raw 64-bit draw per key for the given step index, as uint64; keys is not modified."""
    return _mix_in_place(keys + np.uint64(((step + 1) * _GOLDEN) & _MASK))


def step_uniforms(keys: np.ndarray, step: int) -> np.ndarray:
    """One uniform in [0, 1) per key for the given step index: the top 53 bits of step_bits."""
    bits = step_bits(keys, step)
    bits >>= np.uint64(11)
    u = bits.astype(np.float64)
    u *= _SCALE
    return u


def _bits_threshold(p: float) -> np.uint64:
    """The least raw word whose draw reaches p < 1: step_bits >= it exactly when step_uniforms >= p.

    A draw is (bits >> 11) * 2^-53, and p * 2^53 is exact, so the draw
    reaches p exactly when bits >> 11 >= ceil(p * 2^53), that is when
    bits >= ceil(p * 2^53) * 2^11; every word reaches p <= 0 (-0.0 too).
    A float below 1 is at most 1 - 2^-53, so the threshold is at most
    2^64 - 2^11 and fits in uint64.  Comparing the raw words with it
    skips step_uniforms' shift, conversion and scaling passes.
    """
    return np.uint64(math.ceil(p * (1 << 53)) << 11 if p > 0 else 0)


def uniform(seed: int, path: int, step: int) -> float:
    """Scalar route to the same draw: matches step_uniforms(path_keys(...))."""
    key = derive_key(seed, path)
    return (mix64(key + (step + 1) * _GOLDEN) >> 11) * _SCALE


def block_plan(n_paths: int) -> tuple:
    """(workers, blocks): contiguous (first, count) blocks covering [0, n_paths) and the threads to run them.

    The blocks differ in size by at most one path and hold at most BLOCK
    paths each (BLOCK >= 2).  SPECTRAL_WALKS_THREADS asks for a worker
    count (default 1; values below 1 read as 1), and a value that is not
    an integer raises ValueError naming it, whatever the plan.  The count
    is capped at the CPUs this process may run on and at the
    ceil(n_paths / BLOCK) blocks needed, so a run of at most BLOCK paths
    is one block on one worker.  The block count is then rounded up to a
    multiple of the workers, so every worker runs as many blocks.
    """
    env = os.environ.get("SPECTRAL_WALKS_THREADS", "").strip()
    try:
        threads = max(1, int(env)) if env else 1
    except ValueError:
        raise ValueError(f"SPECTRAL_WALKS_THREADS must be an integer worker count, not {env!r}") from None
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    needed = max(1, -(-n_paths // BLOCK))
    workers = min(threads, cpus, needed)
    n_blocks = -(-needed // workers) * workers
    base, extra = divmod(n_paths, n_blocks)
    return workers, [(i * base + min(i, extra), base + (i < extra)) for i in range(n_blocks)]


def run_blocks(block, n_paths: int) -> None:
    """Call block(first, count) for every block of the plan: in order on this thread for one worker, else from a pool."""
    workers, blocks = block_plan(n_paths)
    if workers == 1:
        for first, count in blocks:
            block(first, count)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for fut in [pool.submit(block, first, count) for first, count in blocks]:
            fut.result()
