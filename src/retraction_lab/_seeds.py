"""Deterministic stream derivation: every random decision draws from a
`random.Random` keyed by (seed, *labels), so runs are reproducible and
independent trials never share state."""
from __future__ import annotations

import hashlib
import random


def derive(*parts) -> int:
    material = "\x1f".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(material).digest()[:16], "big")


def pyrng(*parts) -> random.Random:
    return random.Random(derive(*parts))
