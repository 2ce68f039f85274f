#!/usr/bin/env python3
"""Diagonal-symmetric two-qudit states through the matrix-cone dictionary.

A state supported on the symmetric (Dicke) basis is parameterized by one
symmetric nonnegative matrix P.  Its quantum properties translate exactly:
psd-ness of the operator is elementwise positivity of P, PPT is double
nonnegativity, separability is complete positivity, and bosonic
r-extendibility with positive partial transposes lands in the dual cones of
the square-of-squares hierarchy.
"""

import numpy as np

from conekit import cones, quantum as qt
from conekit.cones import berman_matrix, horn_matrix
from conekit.linalg import inner
from conekit.pairwise import pair_form

np.set_printoptions(precision=4, suppress=True)

# -- a PPT-entangled Dicke state --------------------------------------------

P = berman_matrix()
print("parameter matrix P (doubly nonnegative, not completely positive):")
print(P)

cls = qt.dicke_class(P)
print(f"  operator psd: {cls['psd']}, PPT: {cls['ppt']}, "
      f"separable: {cls['separable'].status.value}")

for r in (2, 3, 4):
    ext = qt.dicke_extendibility(P, r)
    extra = f"  (optimum {ext.value:+.6f})" if ext.value is not None else ""
    print(f"  {r}-extendible with PPT: {ext.status.value}{extra}")
print("  2-extendibility is exactly PPT; the state drops out at r = 3.")

# -- witnessing entanglement from a copositive matrix -----------------------

print()
H = horn_matrix()
N = np.diag(np.diag(H)) + (np.ones((5, 5)) - np.eye(5))
Wit = qt.witness_from_cop(H, N)
print(f"witness from the five-cycle matrix (hierarchy level {Wit.level}):")
print(f"  value on P above: {Wit.evaluate(P):+.4f}  "
      f"(nonnegative: this witness does not see it)")

spn = cones.is_spn(H)
X = spn.certificate["X"]
print(f"  value on the SPN-refutation dual X: {Wit.evaluate(X):+.6f}  "
      f"-> detects that Dicke state: {Wit.detects(X)}")

# -- a 3-extendible entangled state, found and re-verified ------------------

print()
found, certs = qt.find_extendible_entangled(5, 3)
s_W, s_ext = certs["window"]
print(f"on the segment from I + J to P, the states with s in "
      f"({s_W:.6f}, {s_ext:.6f}) are 3-extendible yet entangled;")
print(f"the midpoint s* = {certs['s']:.6f} keeps a margin on both certificates:")
print(found)
print(f"  extendibility optimum {certs['extendibility'].value:+.2e}")
re_ext = cones.in_kr_dual(found, 1)
re_cop = cones.is_cop(certs["cp_witness"])
print(f"  extendibility re-verified: {re_ext.status.value}")
print(f"  entanglement witness pairing {inner(found, certs['cp_witness']):+.2e}, "
      f"witness copositive: {re_cop.status.value} (level {re_cop.level})")

# -- a cheap necessary condition for pair witnesses -------------------------

print()
pair = pair_form(N, H - (N - np.diag(np.diag(N))))
for r in (1, 2):
    print(f"  necessary condition at extension level {r + 2}: "
          f"{qt.ext_necessary_star(pair, r)}")
