"""Process-pool fan-out shared by the lemma sweeps and the extremizer restarts."""

from __future__ import annotations


def run_chunks(fn, argses, threads: int):
    """[fn(*a) for a in argses], in order; one pool per call when threads > 1."""
    if threads <= 1 or len(argses) <= 1:
        return [fn(*a) for a in argses]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, *zip(*argses)))
