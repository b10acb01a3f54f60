"""Exact counts by routes that share no code with the library's backtracker.

Small instances go through `reference.naive_count` (full enumeration).
Larger ones go through variable elimination: one unary factor per pattern
vertex (its list), one target adjacency matrix per pattern edge, vertices
summed out in min-degree order.  On a path this is the transfer-matrix
product; on a grid it is the row-by-row transfer.  Surjective and compaction
counts are inclusion-exclusion sums of such list-homomorphism counts over the
target vertices (and non-loop edges) that are avoided.
"""
from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from retraction_lab import reference

NAIVE_LIMIT = 4000  # list-respecting assignments enumerated by naive_count
_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _lhom(pattern, masks, adj, dtype) -> int:
    """Variable elimination over pattern vertices; masks[v] is the 0/1 list
    vector of v and adj the (possibly thinned) target adjacency matrix."""
    factors = [((v,), masks[v]) for v in pattern.vertices]
    factors += [((u, w), adj) for u, w in pattern.non_loop_edges()]
    nbrs = {v: set(pattern.neighbors(v)) for v in pattern.vertices}
    remaining = set(pattern.vertices)
    while remaining:
        v = min(remaining, key=lambda x: (len(nbrs[x] & remaining), x))
        remaining.discard(v)
        touching = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        scope = sorted({x for f in touching for x in f[0]})
        if len(scope) > len(_LETTERS):
            raise ValueError("elimination width exceeds the einsum alphabet")
        letter = dict(zip(scope, _LETTERS))
        out = tuple(x for x in scope if x != v)
        spec = ",".join("".join(letter[x] for x in f[0]) for f in touching)
        spec += "->" + "".join(letter[x] for x in out)
        factors.append((out, np.einsum(spec, *(f[1] for f in touching))))
        for x in out:
            nbrs[x] |= set(out) - {x}
    total = 1
    for _, arr in factors:
        total *= int(arr)
    return total


def _setup(pattern, lists, target):
    tv = target.vertices
    size = math.prod(len(lists[v]) for v in pattern.vertices)
    # every intermediate factor entry is bounded by the product of list sizes
    dtype = np.int64 if size < 2**62 else object
    masks = {
        v: np.array([1 if t in lists[v] else 0 for t in tv], dtype=dtype)
        for v in pattern.vertices
    }
    adj = np.array([[1 if target.has_edge(a, b) else 0 for b in tv] for a in tv], dtype=dtype)
    return size, masks, adj, dtype


def _restricted(masks, keep):
    return {v: m * keep for v, m in masks.items()}


def count(inst, target, mode: str) -> int:
    """Exact count of `inst` into `target` in any of the five modes."""
    pattern, lists = inst.pattern, inst.lists
    size, masks, adj, dtype = _setup(pattern, lists, target)
    if size <= NAIVE_LIMIT:
        return reference.naive_count(inst, target, mode)
    if mode in ("hom", "lhom", "ret"):
        return _lhom(pattern, masks, adj, dtype)
    k = len(target.vertices)
    index = {t: i for i, t in enumerate(target.vertices)}
    edges = [(index[a], index[b]) for a, b in target.non_loop_edges()]
    if mode not in ("sur", "comp"):
        raise ValueError(f"unknown mode {mode!r}")
    total = 0
    for r in range(k + 1):
        for kept in combinations(range(k), r):
            keep = np.zeros(k, dtype=dtype)
            keep[list(kept)] = 1
            sub = _restricted(masks, keep)
            sign = (-1) ** (k - r)
            if mode == "sur":
                total += sign * _lhom(pattern, sub, adj, dtype)
                continue
            for f in range(len(edges) + 1):
                for dropped in combinations(edges, f):
                    thin = adj.copy()
                    for a, b in dropped:
                        thin[a, b] = thin[b, a] = 0
                    total += sign * (-1) ** f * _lhom(pattern, sub, thin, dtype)
    return total
