#!/usr/bin/env python3
"""Counting multiterminal cuts through a retraction oracle.

Each base edge becomes a block gadget whose sizes come from a simultaneous
Diophantine approximation, chosen so that every minimum cut contributes the
same weight Z* and larger cuts are negligible.  At desk scale the whole
accounting is exact, so the estimator recovers the cut count exactly.
"""
from fractions import Fraction

from retraction_lab import ExactOracle, Graph, count_blocked
from retraction_lab.fixedgraphs import build_jq
from retraction_lab.gadgets import (
    build_cut_instance,
    count_multiterminal_cuts_bruteforce,
    cut_accounting,
    dirichlet_approx,
    estimate_multiterminal_cuts,
)

# Dirichlet's lemma in action: approximate 1/2 and 3/2 by p/r with r <= N.
for lams, n in (([Fraction(1, 2)], 4), ([Fraction(3, 2)], 2)):
    ps, r = dirichlet_approx(lams, n)
    print(f"lambda={[str(l) for l in lams]}, N={n}  ->  p={ps}, r={r}")

# The fixture: a star whose three leaves are the terminals; its minimum
# multiterminal cuts take two of the three edges.
g = Graph(["z", "a", "b", "c"], [("z", "a"), ("z", "b"), ("z", "c")])
t_true = count_multiterminal_cuts_bruteforce(g, "a", "b", "c", 2)
print("\nbrute-force count of size-2 multiterminal cuts:", t_true)

plan = build_cut_instance(g, "a", "b", "c", 2, build_jq(3), delta_prime=Fraction(1, 50))
print(f"gadget sizes: s={plan.s}, r={plan.r}, "
      f"(s_alpha, s_beta, s_gamma)=({plan.s_alpha}, {plan.s_beta}, {plan.s_gamma})")
print("instance expands to", plan.blocked.expansion_size(), "vertices")

hom = count_blocked(plan.blocked, plan.target)
print("exact retraction count of the gadget instance:", hom)
print("Z* =", plan.zstar, " ratio =", Fraction(hom, plan.zstar))

acc = cut_accounting(plan)
print("window check: T <= Z/Z* <= T + 1/4:",
      acc.t_count, "<=", Fraction(acc.z_value, plan.zstar), "<=", acc.t_count + Fraction(1, 4))

est = estimate_multiterminal_cuts(plan, ExactOracle().count, epsilon=0.2)
print("estimator returns:", est, "(bruteforce:", t_true, ")")

print("\nper-cut accounting:")
for rec in acc.records:
    print(f"  cut {rec.edges}  components={rec.kappa}  colorings={rec.psi_size}")
