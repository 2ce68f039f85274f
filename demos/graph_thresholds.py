#!/usr/bin/env python3
"""Decomposability thresholds of graph maps.

For a graph G the family Phi_t(Z) = Tr(Z) I - t A_G o Z moves through four
regimes as t grows: completely positive until 1/lambda_max, completely
copositive until 1, decomposable until sigma(G), positive until the clique
threshold 1 + 1/(omega - 1).  A graph "has a gap" when sigma sits strictly
below the clique threshold: the maps in between are positive but not
decomposable.
"""

import numpy as np

from conekit import graphs as gr

np.set_printoptions(precision=4, suppress=True)

# -- closed forms vs the general-purpose SDP --------------------------------

print("sigma by two routes (odd cycle C7):")
c7 = gr.catalog("c7")
for strategy in ("auto", "sdp"):
    res = gr.sigma(c7, strategy=strategy)
    print(f"  {strategy:10s} -> {res.value:.9f}  [{res.provenance}]")
print(f"  1 + cos(pi/7) = {1 + np.cos(np.pi / 7):.9f}")

# -- the four thresholds for the Petersen graph -----------------------------

print()
pet = gr.catalog("petersen")
rep = gr.classify_map(pet)
print(f"Petersen graph: n = {pet.n}, lambda_max = {rep.lam:.0f}, "
      f"omega = {rep.omega}")
print(f"  completely positive  for t <= {rep.t_cp:.6f}")
print(f"  completely copositive for t <= {rep.t_ccp:.6f}")
print(f"  decomposable          for t <= {rep.t_dec:.6f}  "
      f"[{rep.provenance['t_dec']}]")
print(f"  positive              for t <= {rep.t_pos:.6f}")
print(f"  gap window (positive, not decomposable): {rep.window}")

# -- the rank-3 strongly regular catalog ------------------------------------

print()
print("rank-3 strongly regular graphs on up to 17 vertices:")
print(f"  {'name':22s} {'(n,k,l,m)':14s} {'sigma':>9s} {'clique thr':>11s} gap")
for name in gr.SRG_TABLE:
    G = gr.catalog(name)
    p = G.srg
    res = gr.sigma(G)
    om = gr.clique_number(G)
    thr = 1 + 1 / (om - 1)
    mark = "yes" if res.value < thr - 1e-6 else "no"
    print(f"  {name:22s} ({p.n},{p.k},{p.lambda_c},{p.mu})".ljust(40)
          + f"{res.value:9.6f} {thr:11.6f} {mark:>4s}")

# -- scanning raw graph6 for gaps -------------------------------------------

print()
print("scan of a few graph6 lines (C5, K5, the 6-wheel, a path):")
lines = ["DqK", "D~{", gr.catalog("wheel6").to_graph6(), "DhC"]
for rec in gr.scan_gap(lines):
    print(f"  {rec.graph6:8s} n={rec.n}  sigma={rec.sigma:.4f}  "
          f"omega={rec.omega}  gap={rec.gap}")
