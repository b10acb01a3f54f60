#!/usr/bin/env python3
"""Approximating surjective-homomorphism and compaction counts with a
retraction oracle.

The estimator enumerates the constant-size witnesses that force coverage,
weighs the pinned sub-instances by oracle counts, samples the weighted
disjoint union and keeps first occurrences.  With the exact oracle the
estimate concentrates tightly around the true count.
"""
import math

from retraction_lab import ExactOracle, ListedInstance
from retraction_lab.approx import coverage_mc, enumerate_T, lhom_padding, sample_hom
from retraction_lab.exact import count_compaction, count_list_hom, count_surjective
from retraction_lab.fixedgraphs import build_path, build_two_wrench
from retraction_lab.reference import coverage_partition

# the path on five vertices maps onto the 2-wrench both surjectively and as
# a compaction, so both modes have witnesses to sample from
g = build_path(5)
tw = build_two_wrench()
inst = ListedInstance.full(g, tw)

for mode, counter in (("sur", count_surjective), ("comp", count_compaction)):
    truth = counter(inst, tw)
    witnesses = enumerate_T(inst, tw, mode)
    run = coverage_mc(inst, tw, mode, eps=0.2, delta=0.1, oracle=ExactOracle(), seed=2024)
    # E[Y] = sum_i omega_i phat_i: each homomorphism of the union counted once,
    # in the branch of the first witness it extends
    ey = sum(coverage_partition(inst, tw, witnesses)[1])
    print(f"mode={mode}: truth={truth}, witnesses={len(witnesses)}, samples={run.m}")
    print(f"  estimate Y = {float(run.y):.3f}  (exact E[Y] = {ey}, "
          f"within e^+-0.2: {truth * math.exp(-0.2) <= run.y <= truth * math.exp(0.2)})")

# The sampler behind the estimator: sequential pinning by oracle counts is
# exactly uniform when the oracle is exact.
oracle = ExactOracle()
sample = sample_hom(oracle, inst, tw, eps=0.05, seed=7)
print("\none uniform homomorphism:", sample)

# Plain list-homomorphism counting rides along: pad the pattern with a
# pinned copy of the target and every homomorphism becomes surjective.
padded = lhom_padding(inst, tw)
print("padding identity:", count_list_hom(inst, tw),
      "=", count_surjective(padded, tw), "=", count_compaction(padded, tw))
