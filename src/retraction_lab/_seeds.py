"""Deterministic stream derivation: every random decision draws from a
generator keyed by (seed, *labels), so runs are reproducible and independent
trials never share state."""
from __future__ import annotations

import hashlib
import random
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def derive(*parts) -> int:
    material = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "big")


def pyrng(*parts) -> random.Random:
    return random.Random(derive(*parts))


def nprng(*parts) -> np.random.Generator:
    # imported here: numpy costs more to import than the rest of the package
    import numpy as np

    return np.random.Generator(np.random.PCG64(derive(*parts)))
