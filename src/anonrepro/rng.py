"""Deterministic random stream derivation.

One 64-bit master seed drives an entire run.  Every (trial, component) pair
gets its own generator derived through a stateless mix of the seed with the
index path, so results do not depend on execution order: trial 17 draws the
same numbers whether it runs first, last, or on another worker.

``substream`` is the definition: ``default_rng(SeedSequence([seed, *path]))``.
The Monte-Carlo harness needs one stream per (trial, field), and building a
``SeedSequence`` and a fresh generator for each costs more than most trials
spend drawing.  ``trial_streams`` therefore derives the same states for one
field a block of trials at a time: it repeats ``SeedSequence``'s hash and
PCG64's seeding as numpy uint32 operations over the block (O'Neill, "PCG: A
Family of Simple Fast Space-Efficient Statistically Good Algorithms for
Random Number Generation", 2014) and loads each state into one reused
generator.  The draws are bit-identical to ``substream``'s.  The first
trial of every block is checked against ``substream``; should a numpy
release ever derive differently, that block falls back to ``substream``,
so results stay the same and only the speed is lost.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: Trials whose states are derived together; memory is O(block), not O(trials).
BLOCK = 1024

# numpy.random.SeedSequence constants (pool of four 32-bit words).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _block_states(seed: int, trials: range, index: int) -> list[tuple[int, int]]:
    """PCG64 (state, inc) of ``substream(seed, t, index)`` for each t in ``trials``.

    Every trial of the block must have the same number of uint32 words and
    lie below 2**64.
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
        (words[2 * k] | (words[2 * k + 1] << np.uint64(32))).tolist() for k in range(4)
    )

    # PCG64 seeding (pcg_setseq_128_srandom_r), on Python ints
    states = []
    for s_hi, s_lo, i_hi, i_lo in zip(seed_hi, seed_lo, seq_hi, seq_lo):
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = (((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT) + inc) & _MASK128
        states.append((state, inc))
    return states


def _pcg64_state(state: int, inc: int) -> dict:
    """A freshly seeded PCG64's ``bit_generator.state``."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def _derivable(block: range, index: int) -> bool:
    """Whether ``_block_states`` covers every trial of ``block``."""
    lo, hi = min(block[0], block[-1]), max(block[0], block[-1])
    return (
        lo >= 0
        and hi <= _MASK64
        and index >= 0
        and len(_words(lo)) == len(_words(hi))
    )


def trial_streams(
    master_seed: int, trials: range, index: int
) -> Iterator[np.random.Generator]:
    """Yield the stream of ``substream(master_seed, t, index)`` for each t in ``trials``.

    Each yielded generator draws exactly what ``substream`` would, but it is
    one reused object: consume it before advancing the iterator.  It carries
    no ``SeedSequence`` of its own, so ``Generator.spawn`` (and ``split``)
    must not be used on it.
    """
    generator = np.random.Generator(np.random.PCG64(0))
    bit_generator = generator.bit_generator
    for first in range(0, len(trials), BLOCK):
        block = trials[first : first + BLOCK]
        states = _block_states(master_seed, block, index) if _derivable(block, index) else None
        if states is None or (
            substream(master_seed, block[0], index).bit_generator.state
            != _pcg64_state(*states[0])
        ):
            for trial in block:
                yield substream(master_seed, trial, index)
            continue
        for state, inc in states:
            bit_generator.state = _pcg64_state(state, inc)
            yield generator
