"""Deterministic random-number streams.

Every stochastic component (data generation, initialization, node sampling,
attack noise) draws from an explicitly named child stream of a single root
seed, so experiments are bit-reproducible and components can be re-seeded
independently without perturbing each other.

A stream is keyed by the list ``[seed, *names]``, each name an integer
masked to its low 32 bits or a string's 32-bit FNV-1a hash.  NumPy's
``SeedSequence`` reads such a list as ``uint32`` words: each entry split
into little-endian 32-bit words, ``[0]`` for zero, so a seed below 2³²
is one word and every name is exactly one.  :meth:`RngFactory.stream`
hands ``SeedSequence`` those words as one ``uint32`` array, which NumPy
takes as is instead of converting the list entry by entry: the stream
is the one the list would give, bit for bit, for about 40% less
(``spawn(0, "fleet-shard", node)``: 31 → 20 µs on a 2-vCPU host).  The
seed's words are split once per factory, :func:`spawn` keeps one factory
per seed, and a string's hash is computed once per process.

Most of a stream's cost is still NumPy's ``SeedSequence`` hash, run per
stream behind an ``np.errstate`` wrapper.  :meth:`RngFactory.streams`
gives ``stream(*names, i)`` for many ids ``i`` at once: it runs the hash
(``mix_entropy``, then ``generate_state(4, np.uint64)``) once over an
``(words, ids)`` ``uint32`` array, whose arithmetic wraps as NumPy's
does, and builds each id's ``PCG64`` from its row of state words through
a fixed-words seed sequence.  The fleet seeds a round's 256 device-speed
streams this way: about 130 µs for the pass and 1.2 µs a generator,
about 0.5 ms in all against 2.7 ms for 256 calls of :func:`spawn`.  For
one stream, :meth:`RngFactory.stream` stays the cheaper path: a
one-column pass costs more than NumPy's own hash.  NumPy keeps
``SeedSequence``'s output stable across releases, and
``tests/utils/test_utils.py`` holds the pass to it bit for bit.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "RngFactory",
    "spawn",
    "set_node_rng_hook",
    "instrument_node_rng",
]

#: Optional wrapper applied to every per-node block generator the executors
#: create.  ``repro check-determinism`` installs the RNG-stream ledger here
#: (see :mod:`repro.analysis.determinism`); normal runs pay one ``None``
#: check.  The hook receives ``(rng, block_index, node_id)`` and returns the
#: generator the strategy should draw from.  The executors' generator is
#: seeded on its first attribute access, so a hook that only wraps it
#: builds nothing.
NodeRngHook = Callable[[np.random.Generator, int, int], np.random.Generator]

_NODE_RNG_HOOK: Optional[NodeRngHook] = None


def set_node_rng_hook(hook: Optional[NodeRngHook]) -> Optional[NodeRngHook]:
    """Install (or clear, with ``None``) the node-RNG hook; returns the old one."""
    global _NODE_RNG_HOOK
    previous = _NODE_RNG_HOOK
    _NODE_RNG_HOOK = hook
    return previous


def instrument_node_rng(
    rng: np.random.Generator, block_index: int, node_id: int
) -> np.random.Generator:
    """Pass a per-node generator through the active hook."""
    if _NODE_RNG_HOOK is None:
        return rng
    return _NODE_RNG_HOOK(rng, block_index, node_id)


class RngFactory:
    """Produces named, independent ``numpy.random.Generator`` streams."""

    def __init__(self, seed: int) -> None:
        self._seed = int(seed)
        self._seed_words = _seed_words(self._seed)

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, *names) -> np.random.Generator:
        """A generator keyed by ``(root_seed, *names)``.

        The same names always yield the same stream; distinct names yield
        statistically independent streams.
        """
        words = np.array(self._key(names), dtype=np.uint32)
        return np.random.default_rng(np.random.SeedSequence(words))

    def streams(
        self, *names, ids: Sequence[int]
    ) -> Iterator[np.random.Generator]:
        """``stream(*names, i)`` for each ``i`` in ``ids``, in order.

        The hash runs once, for every id, on the first ``next``; each
        generator is built only when it is asked for, so a caller that
        drops one before asking for the next holds one at a time.  Their
        seed sequence holds fixed state words, so they cannot ``spawn``.
        """
        key = self._key(names)
        entropy = np.empty((len(key) + 1, len(ids)), dtype=np.uint32)
        entropy[:-1] = np.array(key, dtype=np.uint32)[:, None]
        entropy[-1] = [_name_to_int(i) for i in ids]
        for words in _seed_states(entropy):
            yield np.random.Generator(np.random.PCG64(_StateWords(words)))

    def _key(self, names: Tuple[Any, ...]) -> Tuple[int, ...]:
        """The ``uint32`` words of ``[seed, *names]``."""
        return self._seed_words + tuple(_name_to_int(n) for n in names)

    def __repr__(self) -> str:
        return f"RngFactory(seed={self._seed})"


_MASK32 = 0xFFFFFFFF


def _seed_words(seed: int) -> Tuple[int, ...]:
    """``seed`` as ``SeedSequence`` splits it: little-endian 32-bit words."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return tuple(words)


def _name_to_int(name) -> int:
    """A name's one ``SeedSequence`` word."""
    if isinstance(name, (int, np.integer)):
        return int(name) & _MASK32
    return _fnv1a(str(name))


@functools.lru_cache(maxsize=1024)
def _fnv1a(text: str) -> int:
    """Stable 32-bit string hash (Python's ``hash()`` is salted per process)."""
    acc = 2166136261
    for ch in text.encode():
        acc = ((acc ^ ch) * 16777619) & _MASK32
    return acc


# ``SeedSequence``'s hash constants, as NumPy's ``bit_generator.pyx`` has them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
#: ``SeedSequence``'s default pool size, in words
_POOL = 4


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init·multᵏ mod 2³²`` for ``k < count``, as a read-only column."""
    values = [init]
    for _ in range(count - 1):
        values.append(values[-1] * mult & _MASK32)
    column = np.array(values, dtype=np.uint32)[:, None]
    column.setflags(write=False)
    return column


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """``hashmix`` of row ``j`` of ``words`` with the running hash constant
    at step ``j``: xor ``constants[j]``, multiply by ``constants[j + 1]``."""
    out = words ^ constants[:-1]
    out *= constants[1:]
    out ^= out >> 16
    return out


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``mix`` of two pool words, elementwise."""
    out = _MIX_L * x - _MIX_R * y
    out ^= out >> 16
    return out


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``SeedSequence(column).generate_state(4, np.uint64)`` for each column
    of the ``(words, n)`` ``uint32`` array ``entropy``, as ``(n, 4)`` rows.

    The hash constants step the same way whatever the data, so the calls
    that NumPy's loops make one word at a time run here a pool row at a
    time, over every column at once.
    """
    length, n = entropy.shape
    extra = max(0, length - _POOL)
    hash_a = _hash_constants(
        _INIT_A, _MULT_A, _POOL * _POOL + _POOL * extra + 1
    )
    # mix_entropy: hash the first four words (zeros past the key) into
    # the pool, mix every pool word into every other one, then mix each
    # word past the fourth into every pool word.
    pool = np.zeros((_POOL, n), dtype=np.uint32)
    pool[:length] = entropy[:_POOL]
    pool = _hashmix(pool, hash_a[: _POOL + 1])
    step = _POOL
    for src in range(_POOL):
        dst = [d for d in range(_POOL) if d != src]
        hashed = _hashmix(
            np.broadcast_to(pool[src], (_POOL - 1, n)),
            hash_a[step : step + _POOL],
        )
        pool[dst] = _mix(pool[dst], hashed)
        step += _POOL - 1
    for src in range(_POOL, length):
        hashed = _hashmix(
            np.broadcast_to(entropy[src], (_POOL, n)),
            hash_a[step : step + _POOL + 1],
        )
        pool = _mix(pool, hashed)
        step += _POOL
    # generate_state: eight uint32 words cycling over the pool, read as
    # four little-endian uint64 words.
    state = _hashmix(
        np.concatenate([pool, pool]),
        _hash_constants(_INIT_B, _MULT_B, 2 * _POOL + 1),
    )
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(
        np.uint64, copy=False
    )


class _StateWords(ISeedSequence):
    """A seed sequence whose state is already generated: ``PCG64`` asks it
    once for four ``uint64`` words, and gets one row of
    :func:`_seed_states`."""

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(
        self, n_words: int, dtype: Any = np.uint32
    ) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("holds only PCG64's four uint64 seed words")
        return self._words


@functools.lru_cache(maxsize=64)
def _factory(seed: int) -> RngFactory:
    return RngFactory(seed)


def spawn(seed: int, *names) -> np.random.Generator:
    """One-shot convenience wrapper around :class:`RngFactory`, reusing one
    factory per seed."""
    return _factory(seed).stream(*names)
