"""Deterministic stream derivation: every random decision draws from a
generator keyed by (seed, *labels), so runs are reproducible and independent
trials never share state."""
from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    import numpy as np


def _seed_of(digest: bytes) -> int:
    return int.from_bytes(digest[:16], "big")


def derive(*parts) -> int:
    material = "\x1f".join(str(p) for p in parts).encode()
    return _seed_of(hashlib.sha256(material).digest())


def pyrng(*parts) -> random.Random:
    return random.Random(derive(*parts))


def pyrng_family(*parts) -> Callable[[object], random.Random]:
    """k -> pyrng(*parts, k), with the constant parts hashed once."""
    head = hashlib.sha256("".join(f"{p}\x1f" for p in parts).encode())

    def member(k) -> random.Random:
        h = head.copy()
        h.update(str(k).encode())
        return random.Random(_seed_of(h.digest()))

    return member


def nprng(*parts) -> np.random.Generator:
    # imported here: numpy costs more to import than the rest of the package
    import numpy as np

    return np.random.Generator(np.random.PCG64(derive(*parts)))
