"""Seeded randomness.

Every randomized operation in the package takes an explicit 64-bit seed and
builds its generator here.  The generator is numpy's Philox (a counter-based
RNG keyed directly with the seed), and normal variates come from numpy's
ziggurat transform, so a seed pins the full stream within one installation.
Independent sub-streams (per trial, per truth cluster, ...) use seeds derived
by hashing the master seed together with the index path.
"""

from __future__ import annotations

import hashlib
import struct
import threading
from typing import Iterable

import numpy as np

_MASK64 = (1 << 64) - 1


def rng_from_seed(seed: int) -> np.random.Generator:
    """Counter-based generator keyed with a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


_local = threading.local()


def _fast_rng(seed: int) -> np.random.Generator:
    """Per-thread reusable generator re-keyed to `seed`.

    Bit-identical to rng_from_seed(seed) but ~10x cheaper to obtain; the
    returned generator is shared within the thread and valid only until the
    next _fast_rng call there.  Hot loops that key, draw and discard use
    this; anything that holds a generator across other calls must use
    rng_from_seed.
    """
    pair = getattr(_local, "pair", None)
    if pair is None:
        bitgen = np.random.Philox(key=0)
        # plain lists: the state setter reads them ~3x faster than uint64 arrays
        state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        pair = (bitgen, np.random.Generator(bitgen), state)
        _local.pair = pair
    bitgen, gen, state = pair
    state["state"]["key"][0] = seed & _MASK64
    bitgen.state = state
    return gen


def _encode(part: int | str) -> bytes:
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True) + b"\x00"
    return b"s" + part.encode("utf-8") + b"\x00"


def derive_seeds(
    master: int, head: tuple[int | str, ...], tails: Iterable[tuple[int | str, ...]]
) -> list[int]:
    """derive_seed(master, *head, *tail) for every tail, hashing the head once.

    Each tail resumes a copy of the blake2b state left after the packed
    master seed and the head and feeds it the tail's encoded parts one by
    one (the hash streams, so this is the digest of their concatenation):
    a block of per-trial seeds costs one hash of the shared prefix plus one
    short update per part.
    """
    base = hashlib.blake2b(digest_size=8)
    base.update(struct.pack("<Q", master & _MASK64) + b"".join(map(_encode, head)))
    encoded: dict[int | str, bytes] = {}
    out = []
    for tail in tails:
        h = base.copy()
        for part in tail:
            code = encoded.get(part)
            if code is None:
                code = encoded[part] = _encode(part)
            h.update(code)
        out.append(int.from_bytes(h.digest(), "little"))
    return out


def derive_seed(master: int, *path: int | str) -> int:
    """Stable 64-bit seed for the sub-stream identified by `path`.

    blake2b over the packed master seed and the path components; identical
    (master, path) give identical seeds on every platform.
    """
    return derive_seeds(master, path, ((),))[0]
