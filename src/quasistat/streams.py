"""Counter-based random streams for reproducible parallel simulation.

Each stream is an independent keyed sequence: draw k of stream (seed, idx)
is a pure function of (seed, idx, k).  Results are therefore identical
however paths are scheduled or batched, which is what makes simulation
output bit-reproducible for a fixed seed.  ``u01`` is the one draw
kernel: it reads many streams at once (one uint64 key and counter per
stream), for paths and particles that advance in lockstep.  It mixes in
place in one uint64 scratch buffer, whose wrapping products need no
masks; ``mix64`` keeps the Python-int form for key derivation and for
the scalar reference streams of the test suite.

The generator is the splitmix64 finalizer applied to a Weyl sequence,
a standard construction with full 64-bit state and no correlations
detectable at the scales used here (tested against exponential-law
statistics in the test suite).
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
_INV53 = 1.0 / (1 << 53)
# smallest positive double; returned instead of 0.0 so log() stays finite
_TINY = 5e-324


def mix64(z):
    """splitmix64 finalizer: bijective avalanche mix of a 64-bit word.

    Takes a Python int or a uint64 array (mixed elementwise; uint64
    products wrap modulo 2**64, as the masks do for ints)."""
    z = z & _MASK
    z = ((z ^ (z >> 30)) * _MUL1) & _MASK
    z = ((z ^ (z >> 27)) * _MUL2) & _MASK
    return z ^ (z >> 31)


def derive_key(seed: int, *indices):
    """Fold a seed and any number of sub-indices into one stream key.

    An index may be a uint64 array, which yields one key per entry."""
    key = mix64((seed & _MASK) ^ 0x5851F42D4C957F2D)
    for ix in indices:
        key = mix64(((key + _GOLDEN) & _MASK) ^ mix64((ix & _MASK) + 1))
    return key | 1  # odd keys keep the Weyl walk full-period


def u01(keys: np.ndarray, counters) -> np.ndarray:
    """Draw number ``counters`` of each stream in ``keys`` (uint64 arrays,
    or one counter for all): a uniform on (0, 1), a multiple of 2**-53
    below 1, with 0 replaced by the smallest positive double."""
    # mix64 on a fresh array, in place: uint64 products wrap modulo 2**64
    z = keys + np.asarray(counters, dtype=np.uint64) * np.uint64(_GOLDEN)
    s = np.empty_like(z)
    np.right_shift(z, 30, out=s)
    z ^= s
    z *= np.uint64(_MUL1)
    np.right_shift(z, 27, out=s)
    z ^= s
    z *= np.uint64(_MUL2)
    np.right_shift(z, 31, out=s)
    z ^= s
    z >>= 11
    # the top 53 bits convert exactly; the float result reuses the scratch
    u = np.multiply(z, _INV53, out=s.view(np.float64))
    # the smallest nonzero u is 2**-53 > _TINY, so this only replaces 0
    return np.maximum(u, _TINY, out=u)
