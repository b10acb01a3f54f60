#!/usr/bin/env python3
"""Exact counting walk-through: the five counting modes on small graphs.

The 2-wrench (a looped path r1-b-r2 with an unlooped pendant g) is the
smallest target separating retraction counting from list-homomorphism
counting, so it shows up everywhere in this repository.
"""
from retraction_lab import (
    Graph,
    ListedInstance,
    count_compaction,
    count_list_hom,
    count_retraction,
    count_surjective,
    stirling_surjections,
)
from retraction_lab.fixedgraphs import build_path, build_two_wrench
from retraction_lab.reference import (
    count_by_components,
    count_compaction_ie,
    count_surjective_ie,
)

tw = build_two_wrench()
k2 = Graph("uv", [("u", "v")])

print("The 2-wrench:", tw.edges())

# hom(K2, 2-wrench): one ordered adjacent pair per edge orientation plus the
# three loops
inst = ListedInstance.full(k2, tw)
print("hom(K2, 2-wrench) =", count_list_hom(inst, tw))

# Pinning the middle of a path is a retraction-style instance: lists of size
# one or full size only.
p3 = build_path(3)
pinned = ListedInstance(p3, {"c1": frozenset(["b"])}, tw.vertices)
print("P3 with center pinned to b:", count_retraction(pinned, tw), "= deg(b)^2")

# Surjective homomorphisms and compactions add coverage constraints, which
# the exact counter tracks during its search.  The reference module counts
# them a second way, by inclusion-exclusion over list-homomorphism counts.
p5 = ListedInstance.full(build_path(5), tw)
print("sur(P5, 2-wrench):", count_surjective(p5, tw), "=",
      count_surjective_ie(p5, tw), "(inclusion-exclusion)")
print("comp(P5, 2-wrench):", count_compaction(p5, tw), "=",
      count_compaction_ie(p5, tw))

# Components multiply (pattern side) and target components add (connected
# pattern side); the reference module's product-of-sums route agrees.
two_k2 = Graph("abcd", [("a", "b"), ("c", "d")])
print("hom(K2 + K2, K2) =", count_list_hom(ListedInstance.full(two_k2, k2), k2))
mixed = Graph(["x", "y", "z"], [("x", "y"), ("z", "z")])
k2_mixed = ListedInstance.full(k2, mixed)
print("hom(K2, K2 + looped vertex) =", count_list_hom(k2_mixed, mixed), "=",
      count_by_components(k2_mixed, mixed), "(by components)")

# The surjection numbers behind the gadget analysis.
for a, b in ((3, 2), (4, 2), (2, 3)):
    print(f"surjections({a} -> {b}) =", stirling_surjections(a, b))
