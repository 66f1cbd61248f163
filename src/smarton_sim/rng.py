"""Counter-based random number streams with named substreams.

Every random draw in the simulator comes from a named substream so that a
scenario seed reproduces the exact same experiment regardless of how many
draws other components consumed.  The generator is deliberately tiny and
fully specified here so another implementation (any language) can reproduce
the streams bit for bit:

  name_tag   = FNV-1a 64-bit hash of the UTF-8 stream name
               (offset 0xcbf29ce484222325, prime 0x100000001b3)
  stream_key = (seed XOR name_tag) mod 2^64
  draw i     = mix64(stream_key + (i + 1) * 0x9E3779B97F4A7C15)   (SplitMix64)
  double i   = (draw i >> 11) * 2^-53                              in [0, 1)

mix64 is the SplitMix64 finalizer:
  z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
  z ^= z >> 27; z *= 0x94D049BB133111EB
  z ^= z >> 31

Output i depends only on (seed, name, i), so a stream can be sampled at any
counter position without generating its predecessors.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN_GAMMA = 0x9E3779B97F4A7C15

def fnv1a64(name: str) -> int:
    """FNV-1a 64-bit hash of the UTF-8 encoding of `name`."""
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & MASK64
    return h


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a 64-bit integer."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


class Stream:
    """One named substream: a pure counter-based generator with a cursor.

    `at(i)` / `doubles(start, n)` are pure functions of (seed, name, i);
    `next_double()` and friends advance an internal cursor for call sites
    that just want a sequence.
    """

    BLOCK = 256  # doubles that `next_doubles` draws ahead at once

    def __init__(self, seed: int, name: str):
        self.seed = seed
        self.name = name
        self.key = (int(seed) ^ fnv1a64(name)) & MASK64
        self.cursor = 0
        self._block, self._block_at = [], 0  # doubles from counter _block_at on

    def at(self, i: int) -> float:
        """Uniform double in [0, 1) at counter position i."""
        return (mix64(self.key + (i + 1) * GOLDEN_GAMMA) >> 11) * 2.0**-53

    def doubles(self, start: int, count: int) -> np.ndarray:
        """Vectorized block of uniform doubles for counters [start, start+count)."""
        idx = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self.key) + idx * np.uint64(GOLDEN_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            z = z ^ (z >> np.uint64(31))
        return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53

    # the two cursor draws restate `at` so that each costs one call below it
    def next_double(self) -> float:
        i = self.cursor
        self.cursor = i + 1
        return (mix64(self.key + (i + 1) * GOLDEN_GAMMA) >> 11) * 2.0**-53

    def next_below(self, n: int) -> int:
        """Integer in [0, n) from the next double."""
        i = self.cursor
        self.cursor = i + 1
        return int((mix64(self.key + (i + 1) * GOLDEN_GAMMA) >> 11) * 2.0**-53 * n)

    def next_doubles(self, count: int) -> list[float]:
        """`count` `next_double` calls, read from a block that `doubles` draws
        ahead: `(z >> 11) * 2**-53` is exact in float64 there too."""
        i, self.cursor = self.cursor, self.cursor + count
        k = i - self._block_at
        if k < 0 or k + count > len(self._block):
            self._block, self._block_at, k = self.doubles(i, max(count, self.BLOCK)).tolist(), i, 0
        return self._block[k : k + count]

    def sample_without_replacement(self, items: list, k: int) -> list:
        """First k elements of a Fisher-Yates shuffle driven by this stream."""
        pool = list(items)
        out = []
        for _ in range(min(k, len(pool))):
            out.append(pool.pop(self.next_below(len(pool))))
        return out

    def shuffled(self, items) -> list:
        return self.sample_without_replacement(list(items), len(items))

