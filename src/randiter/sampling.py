"""Weighted discrete index sampling with a reproducible RNG.

A run draws its uniforms from `PCG64Stream(seed)`, which gives the bytes
of numpy's `np.random.Generator(np.random.PCG64(seed)).random(k)`
without importing `numpy.random`. A given (seed, weights) pair fully
determines the draw sequence, which the experiment harness relies on for
byte-identical reruns. A block of k uniforms from `random(k)` is the
same k doubles that k scalar `random()` calls give, so drawing a block at
a time leaves the sequence unchanged.
"""

from __future__ import annotations

import operator
import os

import numpy as np

from .errors import DegenerateWeights, NegativeWeight


class WeightedSampler:
    """Draws indices with probability weight[i] / sum(weights).

    Backed by a prefix-sum table and binary search; indices with zero
    weight are never returned.
    """

    def __init__(self, weights):
        w = np.asarray(weights, dtype=np.float64).reshape(-1)
        if w.size == 0:
            raise DegenerateWeights("no weights")
        if np.any(w < 0.0):
            raise NegativeWeight("sampling weights must be nonnegative")
        with np.errstate(over="ignore"):
            self.cumulative = np.cumsum(w)
        self.total = float(self.cumulative[-1])
        if not 0.0 < self.total < np.inf:
            raise DegenerateWeights(f"weights sum to {self.total}, not a finite positive total")
        # the last bin with positive weight
        self._last = int(np.searchsorted(self.cumulative, np.nextafter(self.total, 0.0),
                                         side="right"))

    def __len__(self) -> int:
        return self.cumulative.shape[0]

    def _indices(self, u: float | np.ndarray) -> np.ndarray:
        """Map uniforms in [0, 1) to indices."""
        # side="right" skips zero-weight indices: their cumulative entry
        # equals the previous one, so no u * total lands strictly inside.
        idx = np.searchsorted(self.cumulative, u * self.total, side="right")
        # u * total can round up to exactly total (when total is
        # subnormal); that goes to the last positive bin
        return np.where(idx == len(self), self._last, idx)

    def draw(self, rng: PCG64Stream) -> int:
        """One index with the sampler's distribution; advances rng."""
        return int(self._indices(rng.random()))

    def draw_block(self, rng: PCG64Stream, k: int) -> np.ndarray:
        """k indices, the same as k calls of draw(); advances rng by k."""
        return self._indices(rng.random(k))


def build_sampler(weights) -> WeightedSampler:
    """Validate weights and build the cumulative-table sampler."""
    return WeightedSampler(weights)


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier
REFILL = 1024  # uniforms a stream makes at a time


def _halves(values: list[int]) -> np.ndarray:
    """128-bit ints as a (2, len) uint64 array: the low 64 bits of each,
    then the high 64 bits."""
    raw = np.frombuffer(b"".join(v.to_bytes(16, "little") for v in values), "<u8")
    return raw.reshape(-1, 2).T.astype(np.uint64, order="C")


def _jump_tables() -> tuple[np.ndarray, np.ndarray]:
    """From a state s, i steps of s -> M s + inc reach M^i s + inc
    sum_{j<i} M^j: the _halves of M^i and of sum_{j<i} M^j, mod 2^128,
    for i = 1..REFILL."""
    powers, sums, power, total = [], [], 1, 0
    for _ in range(REFILL):
        power, total = power * _MULT & _MASK128, total + power
        powers.append(power)
        sums.append(total & _MASK128)
    return _halves(powers), _halves(sums)


_POWERS, _SUMS = _jump_tables()  # seed-independent, so built once per process


def _mul_add(a, s: int, c=None) -> tuple[np.ndarray, np.ndarray]:
    """The _halves of a * s + c mod 2^128, for a and c _halves arrays and
    an int s. uint64 products wrap mod 2^64, so only the high 64 bits of
    a_lo * s_lo need 32-bit pieces, whose products are exact."""
    a_lo, a_hi = a
    s_lo, s_hi = s & _MASK64, s >> 64 & _MASK64
    a0, a1, s0, s1 = a_lo & _MASK32, a_lo >> 32, s_lo & _MASK32, s_lo >> 32
    cross0, cross1 = a0 * s1, a1 * s0
    carry = (a0 * s0 >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    hi = a1 * s1 + (cross0 >> 32) + (cross1 >> 32) + (carry >> 32) + a_lo * s_hi + a_hi * s_lo
    lo = a_lo * s_lo
    if c is not None:
        lo += c[0]
        hi += c[1] + (lo < c[0])  # the carry out of the low half
    return lo, hi


def _seed_words(seed) -> list[int]:
    """numpy's SeedSequence entropy for a seed: the 32-bit words of each
    int, least significant first, over a list or tuple of ints."""
    if isinstance(seed, (list, tuple)):
        return [word for part in seed for word in _seed_words(part)]
    n = operator.index(seed)  # TypeError for floats and strings
    if n < 0:
        raise ValueError(f"seed must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _seed_state(seed) -> list[int]:
    """The four uint64 words that SeedSequence(seed) gives PCG64: its
    entropy hashed into a pool of four 32-bit words, then eight words
    drawn from the pool."""
    entropy = _seed_words(seed)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        words.append(value ^ value >> 16)
    return [words[i] | words[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64Stream:
    """The uniforms of numpy's `Generator(PCG64(seed)).random`, byte for byte.

    The seed is an int >= 0, a list or tuple of them, or None for fresh
    OS entropy. PCG64 steps a 128-bit state s -> M s + inc and outputs
    the XSL-RR of each new state; a uniform is (u64 >> 11) * 2^-53. The
    stream makes REFILL uniforms at a time from the jump tables, as the
    states M^i s + inc sum_{j<i} M^j for i = 1..REFILL.
    """

    def __init__(self, seed=None):
        if seed is None:
            seed = int.from_bytes(os.urandom(16), "little")
        state_hi, state_lo, seq_hi, seq_lo = _seed_state(seed)
        self._inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        self._state = (((state_hi << 64 | state_lo) + self._inc) * _MULT + self._inc) & _MASK128
        self._offsets = _mul_add(_SUMS, self._inc)  # inc sum_{j<i} M^j
        self._buffer = np.empty(0)
        self._used = 0

    def _block(self) -> np.ndarray:
        """The next REFILL uniforms."""
        lo, hi = _mul_add(_POWERS, self._state, self._offsets)
        self._state = int(hi[-1]) << 64 | int(lo[-1])
        x = hi ^ lo
        rot = hi >> 58  # the state's top six bits
        x = x >> rot | x << ((64 - rot) & 63)
        return (x >> 11) * 2.0**-53

    def random(self, size: int | None = None):
        """`size` uniforms in [0, 1), or one float if size is None."""
        k = 1 if size is None else size
        if k < 0:
            raise ValueError(f"size must be nonnegative, got {k}")
        while len(self._buffer) - self._used < k:
            self._buffer = np.concatenate([self._buffer[self._used:], self._block()])
            self._used = 0
        out = self._buffer[self._used:self._used + k]
        self._used += k
        return float(out[0]) if size is None else out.copy()
