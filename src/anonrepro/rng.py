"""Deterministic random stream derivation.

One 64-bit master seed drives an entire run.  Every (trial, component) pair
gets its own generator derived through a stateless mix of the seed with the
index path, so results do not depend on execution order: trial 17 draws the
same numbers whether it runs first, last, or on another worker.

``substream`` is the definition: ``default_rng(SeedSequence([seed, *path]))``.
The Monte-Carlo harness needs one stream per (trial, field), and building a
``SeedSequence`` and a fresh generator for each costs more than most trials
spend drawing.  A ``TrialBlock`` therefore derives the same states for one
field a block of trials at a time, or those of their spawned children that
a tuple's components draw from: it repeats ``SeedSequence``'s hash and
PCG64's seeding as numpy array operations over the block, the 128-bit
arithmetic on pairs of uint64 limbs (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number
Generation", 2014).

From the derived states a block steps every trial's PCG64 at once in the
same limb arithmetic to give a *word tape*: row k holds the k-th raw 64-bit
output of every trial's stream (``TrialBlock.words``, or
``TrialBlock.halves`` for the 32-bit values ``integers`` draws from).
``bounded`` and ``uniform`` repeat how numpy's ``Generator`` turns those
outputs into values.  The techniques module builds whole columns of
regenerated values from them, and checks one row of every column against
the scalar draw on ``substream`` itself (``TrialBlock.stream``): that one
comparison covers the derivation, the tape and the sampler, and on any
difference the block falls back to ``substream``, so results stay the same
and only the speed is lost.
"""

from __future__ import annotations

import functools
from typing import Callable, Iterator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

#: Trials whose states are derived together; memory is O(block), not O(trials).
BLOCK = 1024
#: The most 64-bit outputs a tape holds per trial; memory is O(block * TAPE_WORDS).
TAPE_WORDS = 128

# numpy.random.SeedSequence constants (pool of four 32-bit words).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier as (high, low) limbs.
_PCG_MULT = (np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645))
_LO32 = np.uint64(_MASK32)
_S32 = np.uint64(32)


def substream(master_seed: int, *path: int) -> np.random.Generator:
    """Return the generator for ``path`` under ``master_seed``.

    ``path`` elements are non-negative indices (trial number, component
    number, ...).  The same (seed, path) always yields the same generator.
    """
    entropy = [master_seed & _MASK64, *path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def split(rng: np.random.Generator, n: int) -> list[np.random.Generator]:
    """Derive ``n`` child generators for the components of a compound value."""
    return list(rng.spawn(n))


def _words(n: int) -> list[int]:
    """``n`` as the little-endian uint32 words ``SeedSequence`` makes of it."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hasher(init: int, mult: int) -> Callable[[np.ndarray], np.ndarray]:
    """``SeedSequence``'s hash: each call mixes in, then advances, the constant."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(_XSHIFT))

    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(_XSHIFT))


# 128-bit arithmetic on (high, low) uint64 limbs, modulo 2**128.
Limbs = tuple[np.ndarray, np.ndarray]


def _mul64(a: np.ndarray, b: np.uint64) -> Limbs:
    """The full 128-bit product of uint64 ``a`` and ``b``."""
    a0, a1 = a & _LO32, a >> _S32
    b0, b1 = b & _LO32, b >> _S32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _S32) + (p01 & _LO32) + (p10 & _LO32)
    return a1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32), a * b


def _mul128(a: Limbs, b: tuple[np.uint64, np.uint64]) -> Limbs:
    hi, lo = _mul64(a[1], b[1])
    return hi + a[1] * b[0] + a[0] * b[1], lo


def _add128(a: Limbs, b: Limbs) -> Limbs:
    lo = a[1] + b[1]
    return a[0] + b[0] + (lo < b[1]).astype(np.uint64), lo


def _block_states(seed: int, trials: range, index: int, part: int | None = None) -> np.ndarray:
    """PCG64 (state, inc) of ``substream(seed, t, index)``, or of its spawned
    child ``part``, for each t in ``trials``.

    Shape (trials, 2, 2), uint64: per trial the state, then the increment,
    each as (high, low) limbs.  Every trial of the block must have the same
    number of uint32 words and lie below 2**64.
    """
    t = np.arange(trials.start, trials.stop, trials.step, dtype=np.uint64)

    def column(word: int) -> np.ndarray:
        return np.full(len(t), word, dtype=np.uint32)

    entropy = [
        *map(column, _words(seed & _MASK64)),
        *[
            ((t >> np.uint64(32 * k)) & np.uint64(_MASK32)).astype(np.uint32)
            for k in range(len(_words(trials[0])))
        ],
        *map(column, _words(index)),
    ]
    if part is not None:  # SeedSequence.spawn: zero-pad to the pool, then the child
        entropy += [column(0)] * (_POOL_SIZE - len(entropy)) + [*map(column, _words(part))]

    # SeedSequence.mix_entropy
    hashmix = _hasher(_INIT_A, _MULT_A)
    padded = entropy + [column(0)] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(padded[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(entropy[src]))

    # SeedSequence.generate_state(4, np.uint64): eight words, low word first
    hashmix = _hasher(_INIT_B, _MULT_B)
    words = [hashmix(pool[i % _POOL_SIZE]).astype(np.uint64) for i in range(8)]
    seed_hi, seed_lo, seq_hi, seq_lo = (
        words[2 * k] | (words[2 * k + 1] << _S32) for k in range(4)
    )

    # PCG64 seeding (pcg_setseq_128_srandom_r):
    # inc = seq << 1 | 1, state = (inc + seed) * MULT + inc
    inc = ((seq_hi << np.uint64(1)) | (seq_lo >> np.uint64(63)),
           (seq_lo << np.uint64(1)) | np.uint64(1))
    state = _add128(_mul128(_add128(inc, (seed_hi, seed_lo)), _PCG_MULT), inc)
    return np.stack([np.stack(state, axis=-1), np.stack(inc, axis=-1)], axis=1)


def _derivable(block: range, index: int) -> bool:
    """Whether ``_block_states`` covers every trial of ``block``."""
    lo, hi = min(block[0], block[-1]), max(block[0], block[-1])
    return (
        lo >= 0
        and hi <= _MASK64
        and index >= 0
        and len(_words(lo)) == len(_words(hi))
    )


def blocks(trials: range) -> Iterator[range]:
    """``trials`` cut into consecutive blocks of ``BLOCK`` trials."""
    return (trials[first : first + BLOCK] for first in range(0, len(trials), BLOCK))


class TrialBlock:
    """The streams of ``substream(master_seed, t, index)`` for t in ``trials``,
    or with ``part`` j their j-th spawned children, which ``split`` gives a
    tuple's component j.

    ``states``, derived when first read, holds every trial's PCG64 state.
    It is None when the block cannot be derived; the block then has no
    tape.  Nothing here checks the derived states: the techniques module
    checks one drawn row of every column against ``stream``.
    """

    def __init__(self, master_seed: int, trials: range, index: int, part: int | None = None):
        self.master_seed, self.trials, self.index, self.part = master_seed, trials, index, part

    @functools.cached_property
    def states(self) -> np.ndarray | None:
        if not _derivable(self.trials, self.index):
            return None
        # asarray also takes the states as nested (state, inc) pairs
        return np.asarray(_block_states(self.master_seed, self.trials, self.index, self.part),
                          dtype=np.uint64)

    def __len__(self) -> int:
        return len(self.trials)

    def stream(self, row: int) -> np.random.Generator:
        """The stream of trial ``trials[row]``, built by ``substream``: the
        definition every tape must match."""
        stream = substream(self.master_seed, self.trials[row], self.index)
        return stream if self.part is None else stream.spawn(self.part + 1)[self.part]

    def _outputs(self, count: int) -> Iterator[np.ndarray]:
        """Every trial's next raw 64-bit output, ``count`` times."""
        assert self.states is not None
        state = (self.states[:, 0, 0], self.states[:, 0, 1])
        inc = (self.states[:, 1, 0], self.states[:, 1, 1])
        for _ in range(count):
            # pcg_setseq_128_xsl_rr_64_random_r: step the LCG, then output
            # rotr64(high ^ low, state >> 122)
            state = _add128(_mul128(state, _PCG_MULT), inc)
            mixed = state[0] ^ state[1]
            rot = state[0] >> np.uint64(58)
            yield (mixed >> rot) | (mixed << ((np.uint64(64) - rot) & np.uint64(63)))

    def words(self, count: int) -> np.ndarray:
        """The tape: the first ``count`` raw 64-bit outputs of every trial's
        PCG64, shape (count, trials), row k holding each trial's k-th output.
        Needs derived states; ``count`` is at most ``TAPE_WORDS``."""
        assert 0 < count <= TAPE_WORDS
        tape = np.empty((count, len(self.trials)), dtype=np.uint64)
        for k, word in enumerate(self._outputs(count)):
            tape[k] = word
        return tape

    def halves(self, count: int) -> np.ndarray:
        """The tape as the 32-bit values ``next_uint32`` returns, each word's
        low half first: at least ``count`` of them per trial, shape
        (2 * words, trials).  ``count`` is at most ``2 * TAPE_WORDS``."""
        words = -(-count // 2)
        assert 0 < words <= TAPE_WORDS
        tape = np.empty((words, 2, len(self.trials)), dtype=np.uint32)
        for k, word in enumerate(self._outputs(words)):
            tape[k, 0] = word & _LO32
            tape[k, 1] = word >> _S32
        return tape.reshape(2 * words, -1)


def bounded(half: np.ndarray, top: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's draw of an integer in [0, ``top``] from one 32-bit value, for
    0 <= ``top`` < 2**32 (Lemire, "Fast Random Integer Generation in an
    Interval", 2019): the value, and where numpy would reject that 32-bit
    value and draw again.  ``top`` = 0 gives 0 and is never rejected; numpy
    draws nothing then, so the caller must not count the value as consumed."""
    span = np.asarray(top, dtype=np.uint64) + np.uint64(1)
    product = half * span
    rejected = (product & _LO32) < (_LO32 - (span - np.uint64(1))) % span
    product >>= _S32
    return product.view(np.int64), rejected


def uniform(word: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``Generator.uniform(lo, hi)`` from one 64-bit output."""
    return lo + (hi - lo) * ((word >> np.uint64(11)).astype(np.float64) * 2.0**-53)
