"""Counter-based random substreams for reproducible parallel Monte Carlo.

Every random draw in this package derives from a single 64-bit master seed
through Philox counter splits.  A substream is addressed by three words
``(domain, a, b)`` written into the upper 192 bits of the 256-bit Philox
counter; the master seed (salted) is the key.  Distinct addresses give
non-overlapping streams for fewer than 2**64 draws each, so replicates,
coupling blocks and experiment stages can be consumed in any order, or in
parallel, without changing results.

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

import numpy as np

_KEY_SALT = 0x9E3779B97F4A7C15  # arbitrary odd constant, fixed forever
_MASK64 = (1 << 64) - 1


class Domain(IntEnum):
    PATH = 1
    BLOCK = 2


def substream(seed: int, domain: int, a: int = 0, b: int = 0) -> np.random.Generator:
    """Generator for the substream addressed by (domain, a, b) under `seed`."""
    key = np.array([seed & _MASK64, _KEY_SALT], dtype=np.uint64)
    counter = np.array([0, int(domain) & _MASK64, a & _MASK64, b & _MASK64],
                       dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def path_stream(seed: int, n: int, replicate: int) -> np.random.Generator:
    return substream(seed, Domain.PATH, n, replicate)


def block_stream(seed: int, n: int, replicate: int, serial: int) -> np.random.Generator:
    if replicate >= (1 << 32) or n >= (1 << 32):
        raise ValueError("block stream address overflow: need n, replicate < 2**32")
    return substream(seed, Domain.BLOCK, (n << 32) | replicate, serial)


def holdout_seed(seed: int) -> int:
    """Default seed of a holdout check whose training run used `seed`."""
    return seed ^ 0x5851F42D4C957F2D   # fixed forever
