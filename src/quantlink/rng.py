"""Deterministic RNG streams keyed by structured labels.

Seeds come from hashing the key tuple with SHA-256, so streams are stable
across runs and platforms, and adding a new stream (say, one more trial)
never perturbs existing ones. Keys should be ints and strings; floats are
formatted by str() and therefore work, but grid indices are preferred.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream_seed", "stream_rng", "standard_normal_rows"]


def stream_seed(*keys) -> int:
    text = "\x1f".join(str(k) for k in keys)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def stream_rng(*keys) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(stream_seed(*keys))))


def standard_normal_rows(rng, shape: tuple) -> np.ndarray:
    """Standard normals of `shape`, from a sequence of Generators, one per row.

    The k-th Generator fills row k of the leading axis, in the order a call
    for that row's shape alone would draw, so a batch of rows consumes each
    stream exactly as separate calls would.
    """
    rngs = list(rng)
    z = np.empty(shape)
    if not z.ndim or len(rngs) != z.shape[0]:
        raise ValueError(f"need one Generator per row of shape {shape}, got {len(rngs)}")
    for g, row in zip(rngs, z):
        g.standard_normal(out=row)
    return z
