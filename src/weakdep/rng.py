"""Counter-based random substreams for reproducible parallel Monte Carlo.

Every random draw in this package derives from a single 64-bit master seed
through Philox counter splits.  A substream is addressed by three words
``(domain, a, b)`` written into the upper 192 bits of the 256-bit Philox
counter; the master seed (salted) is the key.  Distinct addresses give
non-overlapping streams for fewer than 2**64 draws each, so replicates,
coupling blocks and experiment stages can be consumed in any order, or in
parallel, without changing results.  A run of addresses shares one bit
generator, moved to each address's counter in turn (:func:`substreams`): a
Philox stream is a pure function of (key, counter), so the draws are the same.

Address layout used by the package:

* ``PATH``    streams: one per sample path, ``a = n``, ``b = replicate``.
* ``BLOCK``   streams: one per coupling block, ``a = (n << 32) | replicate``,
  ``b = serial`` (level-major block index, 0 reserved for the first
  increment of the Gaussian partner path).

A holdout check given no seed of its own runs on ``holdout_seed(seed) = seed
XOR 0x5851F42D4C957F2D`` of its training seed: never the training seed, and
63-bit when the training seed is.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Iterable, Iterator

import numpy as np

_KEY_SALT = 0x9E3779B97F4A7C15  # arbitrary odd constant, fixed forever
_MASK64 = (1 << 64) - 1


class Domain(IntEnum):
    PATH = 1
    BLOCK = 2


def substreams(seed: int, domain: int, addresses: Iterable) -> Iterator[np.random.Generator]:
    """Generators for the substreams (domain, a, b) under `seed`, one per
    (a, b) of `addresses`, in order.

    Every item is the same Generator, re-addressed: its counter is set to the
    next address and its output buffer emptied.  The caller must finish
    drawing from one item before advancing the iterator.
    """
    key = np.array([seed & _MASK64, _KEY_SALT], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(key=key))
    counter = np.array([0, int(domain) & _MASK64, 0, 0], dtype=np.uint64)
    state = {"bit_generator": "Philox", "state": {"counter": counter, "key": key},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for a, b in addresses:
        counter[2:] = a & _MASK64, b & _MASK64
        gen.bit_generator.state = state
        yield gen


def substream(seed: int, domain: int, a: int = 0, b: int = 0) -> np.random.Generator:
    """Generator for the substream addressed by (domain, a, b) under `seed`."""
    return next(substreams(seed, domain, [(a, b)]))


def path_stream(seed: int, n: int, replicate: int) -> np.random.Generator:
    return substream(seed, Domain.PATH, n, replicate)


def block_address(n: int, replicate: int) -> int:
    """The word `a` of the BLOCK streams of replicate `replicate` at length n."""
    if replicate >= (1 << 32) or n >= (1 << 32):
        raise ValueError("block stream address overflow: need n, replicate < 2**32")
    return (n << 32) | replicate


def holdout_seed(seed: int) -> int:
    """Default seed of a holdout check whose training run used `seed`."""
    return seed ^ 0x5851F42D4C957F2D   # fixed forever
