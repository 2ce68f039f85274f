"""Bipartite operators built from matrix pairs: Choi matrices of
diagonal-unitary covariant maps, Dicke states, entanglement witnesses,
Markov-Choi positivity, and symmetric-extendibility tests.

A pair (A, B) encodes two channel families:

    DUC:   Z |-> diag(A diag[Z]) + ring(B) o Z        (Choi matrix CLDUI)
    CDUC:  Z |-> diag(A diag[Z]) + ring(B) o Z^T      (Choi matrix LDUI)

with `o` the entrywise product and ring(B) = B minus its diagonal.  The
Choi matrices are supported on O(n^2) coordinates of the n^2-dimensional
bipartite space and are stored sparsely.  Product-vector positivity of
either Choi matrix reduces to the pairwise copositive form, which links
this module to the pair cones; Dicke states X_{P,P} reduce positivity /
PPT / separability to entrywise-nonnegative / doubly-nonnegative /
completely-positive membership of P, and level-r bosonic extendibility to
the dual of the level-(r-2) cone of the copositivity hierarchy.
"""

from dataclasses import dataclass, replace
from math import isqrt
from typing import Optional

import numpy as np

from .linalg import (
    DimensionMismatch,
    as_tolerance,
    check_hermitian,
    inner,
    off_diag,
    symmetrize,
)
from . import certificates, cones
from .cones import ConeVerdict, Effort, Verdict
from .pairwise import (
    DiagonalMismatch,
    MatrixPair,
    PairVerdict,
    copcp_form_value,
    pair_form,
)

__all__ = [
    "UnsupportedLevel",
    "LevelNotCertified",
    "SearchFailed",
    "DimensionMismatch",
    "ChoiMatrix",
    "DickeState",
    "DickeWitness",
    "choi",
    "apply_map",
    "twirl_ldui",
    "block_positivity_value",
    "markov_choi_check",
    "dicke",
    "dicke_class",
    "dicke_extendibility",
    "witness_from_cop",
    "find_extendible_entangled",
    "ext_necessary_star",
]


class UnsupportedLevel(ValueError):
    """The requested extendibility/hierarchy level is out of range."""


class LevelNotCertified(ValueError):
    """The witness base matrix could not be certified at the stated level."""


class SearchFailed(RuntimeError):
    """No point of the searched segment carries both certificates."""


@dataclass(frozen=True)
class ChoiMatrix:
    """Sparse bipartite operator on C^n x C^n.

    Coordinates use the convention (i, j) -> i*n + j.  `symmetry` records
    the invariance class of the support pattern.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    symmetry: str = "NONE"

    def dense(self) -> np.ndarray:
        d = self.n * self.n
        X = np.zeros((d, d), dtype=complex)
        np.add.at(X, (self.rows, self.cols), self.vals)
        return X

    def expectation(self, psi: np.ndarray) -> float:
        psi = np.asarray(psi, dtype=complex).reshape(-1)
        val = np.sum(np.conj(psi[self.rows]) * self.vals * psi[self.cols])
        return float(val.real)


def choi(pair: MatrixPair, kind: str) -> ChoiMatrix:
    """Choi matrix of the map encoded by the pair.

    kind "CLDUI": A_ij at (ij, ij) plus B_ij at (ii, jj) for i != j —
    the Choi matrix of the DUC map.  kind "LDUI": A_ij at (ij, ij) plus
    B_ij at (ij, ji) for i != j — the Choi matrix of the CDUC map.
    """
    kind = kind.upper()
    if kind not in ("LDUI", "CLDUI"):
        raise ValueError("kind must be LDUI or CLDUI")
    n = pair.n
    rows, cols, vals = [], [], []
    for i in range(n):
        for j in range(n):
            rows.append(i * n + j)
            cols.append(i * n + j)
            vals.append(complex(pair.A[i, j]))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if kind == "LDUI":
                rows.append(i * n + j)
                cols.append(j * n + i)
            else:
                rows.append(i * n + i)
                cols.append(j * n + j)
            vals.append(complex(pair.B[i, j]))
    return ChoiMatrix(
        n,
        np.asarray(rows, dtype=int),
        np.asarray(cols, dtype=int),
        np.asarray(vals, dtype=complex),
        symmetry=kind,
    )


def apply_map(pair: MatrixPair, kind: str, Z) -> np.ndarray:
    """Apply the DUC or CDUC map of the pair to an n x n operator."""
    kind = kind.upper()
    if kind not in ("DUC", "CDUC"):
        raise ValueError("kind must be DUC or CDUC")
    Z = np.asarray(Z, dtype=complex)
    if Z.shape != (pair.n, pair.n):
        raise DimensionMismatch(
            f"operator must be {pair.n} x {pair.n}, got {Z.shape}"
        )
    out = np.diag(pair.A @ np.diag(Z)).astype(complex)
    ringB = pair.ring_b()
    if kind == "DUC":
        out = out + ringB * Z
    else:
        out = out + ringB * Z.T
    return out


def twirl_ldui(X) -> MatrixPair:
    """Project a bipartite operator onto the LDUI support pattern.

    Extracts A_ij = X[(ij),(ij)] and B_ij = X[(ij),(ji)] for i != j (with
    the shared diagonal B_ii = A_ii).  choi(twirl_ldui(X), "LDUI") is the
    orthogonal projection of X onto the invariant subspace; the map is a
    left inverse of choi on valid pairs.
    """
    X = check_hermitian(np.asarray(X, dtype=complex))
    d = X.shape[0]
    n = isqrt(d)
    if n * n != d:
        raise DimensionMismatch("operator size must be a perfect square")
    A = np.zeros((n, n))
    B = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            A[i, j] = X[i * n + j, i * n + j].real
            if i != j:
                B[i, j] = X[i * n + j, j * n + i]
    B = B + np.diag(np.diag(A))
    return pair_form(A, B)


def block_positivity_value(pair: MatrixPair, kind: str, v, w) -> float:
    """<vw| choi(pair, kind) |vw> via the closed form, cross-checked
    against the explicit bipartite contraction."""
    kind = kind.upper()
    v = np.asarray(v, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if v.shape != (pair.n,) or w.shape != (pair.n,):
        raise DimensionMismatch("vectors must have length n")
    pv = np.abs(v) ** 2
    pw = np.abs(w) ** 2
    ringB = pair.ring_b()
    if kind == "CLDUI":
        z = v * w
    elif kind == "LDUI":
        z = v * np.conj(w)
    else:
        raise ValueError("kind must be LDUI or CLDUI")
    closed = float((pv @ pair.A @ pw + np.vdot(z, ringB @ z)).real)
    psi = np.kron(v, w)
    explicit = choi(pair, kind).expectation(psi)
    guard = 1e-10 * (1.0 + pair.scale()) * max(
        1.0, float(np.linalg.norm(v) * np.linalg.norm(w)) ** 2
    )
    if abs(closed - explicit) > guard:
        raise ArithmeticError(
            f"closed form {closed} and contraction {explicit} disagree"
        )
    return closed


# ---------------------------------------------------------------------------
# Markov-Choi maps


def _markov_g(A: np.ndarray, t: np.ndarray) -> float:
    d = t + A @ t
    mask = t > 0
    return float(np.sum(t[mask] / np.maximum(d[mask], 1e-300)))


def markov_choi_check(A, tol=None, effort="default", seed: int = 0) -> PairVerdict:
    """Pairwise copositivity of (A, diag(A) - ring J) for entrywise
    nonnegative A.

    The pair is a member exactly when g(t) = sum_i t_i / (t_i + (At)_i)
    stays <= 1 on the positive orthant; g is scale invariant, so the
    simplex suffices.  The maximum is estimated by projected gradient
    ascent from effort.refute_starts random points of the simplex, all
    vertices and the uniform point; a value above 1 yields an explicit
    refuting pair of vectors.  The certificate
    also reports the exact closed-form criteria for the stronger cones:
    sum_i 1/(1 + A_ii) <= 1, optionally with A_ij A_ji >= 1 off-diagonal.
    """
    tol = as_tolerance(tol)
    eff = Effort.of(effort)
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    n = A.shape[0]
    if float(np.min(A)) < -tol.feas_tol * (1.0 + float(np.max(np.abs(A)))):
        raise ValueError("A must be entrywise nonnegative")
    A = np.clip(A, 0.0, None)
    ringJ = np.ones((n, n)) - np.eye(n)
    pair = pair_form(A * 1.0, np.diag(np.diag(A)) - ringJ)

    sum_inv = float(np.sum(1.0 / (1.0 + np.diag(A))))
    cldui_ok = sum_inv <= 1.0 + tol.feas_tol
    prod_ok = all(
        A[i, j] * A[j, i] >= 1.0 - tol.feas_tol
        for i in range(n)
        for j in range(n)
        if i != j
    )
    extras = {
        "sum_inverse_diag": sum_inv,
        "cldui_plus": bool(cldui_ok),
        "pdnn": bool(cldui_ok and prod_ok),
        "pcp": bool(cldui_ok and prod_ok),
    }

    rng = np.random.default_rng(seed)
    best_g, best_t = -np.inf, None
    starts = [np.ones(n) / n]
    starts += [rng.dirichlet(np.ones(n)) for _ in range(eff.refute_starts)]
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        starts.append(e)

    def ascend(t):
        t = np.maximum(t, 0.0)
        s = t.sum()
        t = t / s if s > 0 else np.ones(n) / n
        g = _markov_g(A, t)
        step = 0.25
        for _ in range(200):
            d = t + A @ t
            mask = t > 1e-14
            u = np.zeros(n)
            u[mask] = t[mask] / np.maximum(d[mask], 1e-300) ** 2
            grad = np.where(mask, 1.0 / np.maximum(d, 1e-300), 0.0) - u - A.T @ u
            moved = False
            while step > 1e-10:
                cand = np.maximum(t + step * grad, 0.0)
                s = cand.sum()
                if s <= 0:
                    step *= 0.5
                    continue
                cand /= s
                gc = _markov_g(A, cand)
                if gc > g + 1e-14:
                    t, g = cand, gc
                    step *= 1.3
                    moved = True
                    break
                step *= 0.5
            if not moved:
                break
        return g, t

    for t0 in starts:
        g, t = ascend(np.asarray(t0, dtype=float))
        if g > best_g:
            best_g, best_t = g, t

    extras["g_max"] = float(best_g)
    extras["t"] = best_t
    if best_g > 1.0 + tol.feas_tol:
        s = np.sqrt(best_t)
        M = np.diag((np.eye(n) + A) @ best_t) - np.outer(s, s)
        wmin, V = np.linalg.eigh(M)
        u = V[:, 0]
        val = copcp_form_value(pair, u, s)
        extras.update({"v": u.astype(complex), "w": s.astype(complex),
                       "value": float(val)})
        return PairVerdict(
            Verdict.NON_MEMBER, "copcp", extras, value=float(val),
            detail="simplex maximum of the positivity functional exceeds 1",
        )
    extras["route"] = "markov-ascent"
    return PairVerdict(
        Verdict.MEMBER, "copcp", extras, value=float(best_g),
        detail="positivity functional bounded by 1 over vertex, uniform "
               "and multistart ascent points",
    )


# ---------------------------------------------------------------------------
# Dicke states


@dataclass(frozen=True)
class DickeState:
    P: np.ndarray
    choi: ChoiMatrix


def dicke(P) -> DickeState:
    """The bipartite symmetric state with parameter matrix P."""
    P = symmetrize(np.real(check_hermitian(P)))
    pair = pair_form(P, P)
    return DickeState(P=P, choi=choi(pair, "LDUI"))


def dicke_class(P, tol=None, effort="default", seed: int = 0) -> dict:
    """Positivity/PPT/separability statuses of the state with parameter P.

    psd <-> P entrywise nonnegative; ppt <-> P doubly nonnegative;
    separable <-> P completely positive (tri-state oracle).
    """
    tol = as_tolerance(tol)
    P = symmetrize(np.real(check_hermitian(P)))
    prof = cones.classify_elementary(P, tol)
    out = {
        "psd": bool(prof.in_ewp),
        "ppt": bool(prof.in_dnn),
        "separable": cones.is_cp(P, tol=tol, effort=effort, seed=seed),
    }
    return out


def dicke_extendibility(P, r: int, tol=None) -> ConeVerdict:
    """Level-r bosonic extendibility (with positive partial transposes) of
    the state with parameter P: equivalent to membership of P in the dual
    cone of hierarchy level r - 2."""
    if not (2 <= int(r) <= 4):
        raise UnsupportedLevel("extendibility supported for r in {2, 3, 4}")
    return cones.in_kr_dual(P, int(r) - 2, tol)


# ---------------------------------------------------------------------------
# witnesses


@dataclass(frozen=True)
class DickeWitness:
    """Entanglement/extendibility witness built on a certified matrix M.

    Pairing with the state of parameter P is <P, M>; a value below
    -feas_tol certifies that the state is outside the set dual to M's
    certification level (separable states for a copositive M; level-(l+2)
    extendible states when M sits at hierarchy level l).
    """

    pair: MatrixPair
    M: np.ndarray
    level: Optional[int]
    membership: ConeVerdict
    choi: ChoiMatrix

    def evaluate(self, P) -> float:
        P = symmetrize(np.real(check_hermitian(P)))
        return inner(P, self.M)

    def detects(self, P, tol=None) -> bool:
        tol = as_tolerance(tol)
        scale = 1.0 + float(np.max(np.abs(self.M)))
        return self.evaluate(P) < -tol.feas_tol * scale


def witness_from_cop(M, N, level: Optional[int] = None, tol=None,
                     effort="default", seed: int = 0) -> DickeWitness:
    """Witness from a copositive (or level-certified) matrix M and a
    cushion N with the same diagonal: the operator of the pair
    (N, M - ring N).

    When `level` is given, M is certified at that hierarchy level; when
    omitted, the copositivity oracle picks the lowest level it can
    certify.  Raises LevelNotCertified when certification fails.
    """
    tol = as_tolerance(tol)
    M = symmetrize(np.real(check_hermitian(M)))
    N = symmetrize(np.real(check_hermitian(N)))
    if M.shape != N.shape:
        raise DiagonalMismatch("M and N must have the same shape")
    if float(np.max(np.abs(np.diag(M) - np.diag(N)))) > 1e-10:
        raise DiagonalMismatch("diag(N) must equal diag(M)")
    if level is None:
        vd = cones.is_cop(M, tol=tol, effort=effort, seed=seed)
    else:
        vd = cones.is_kr(M, int(level), tol)
    if vd.status is not Verdict.MEMBER:
        raise LevelNotCertified(
            f"membership of M was not certified ({vd.status.value})"
        )
    pair = pair_form(N, M - off_diag(N))
    return DickeWitness(
        pair=pair,
        M=M,
        level=vd.level,
        membership=vd,
        choi=choi(pair, "LDUI"),
    )


def find_extendible_entangled(n: int, r: int, tol=None, effort="default",
                              seed: int = 0):
    """Find P certified level-r extendible yet entangled, with a margin on
    both certificates.

    The point lies on the segment P(s) = (1 - s) C + s P1 from C = I + J to
    the Berman matrix P1 (padded by an identity block beyond dimension 5),
    where both certificates are affine in s:

    - `in_kr_dual` minimizes <P, M> over level-(r - 2) members M with
      <C, M> = 1, on which <P(s), M> = (1 - s) + s <P1, M>.  Its optimum is
      v*(s) = (1 - s) + s v1, v1 the optimum at s = 1, so P(s) is
      extendible up to s_ext = min(1, 1 / (1 - v1)).
    - A copositive witness W of P(s_ext), from `is_cp`, pairs negatively
      with P(s) above its zero s_W = <C, W> / (<C, W> - <P1, W>).  The
      dual solves' own separators cannot serve as W: each pairs with P(s)
      at or above v*(s), so never below -feas_tol * scale where P(s) is
      certified extendible.

    The returned point is the midpoint s* of the window (s_W, s_ext), so
    each certificate holds with a margin of half the window; it costs two
    `in_kr_dual` solves, at s = 1 and at s*.  Raises SearchFailed, naming
    the window, unless the extendibility optimum at s* is positive, the
    witness pairs below -feas_tol * scale there, and both verdicts pass
    certificates.check.  certs["cp_verdict"] is `is_cp`'s verdict with its
    pairing recomputed at P(s*).
    """
    tol = as_tolerance(tol)
    if n < 5:
        raise ValueError(
            "no PPT-entangled parameter exists below dimension 5"
        )
    if not (2 <= int(r) <= 4):
        raise UnsupportedLevel("extendibility supported for r in {2, 3, 4}")
    level = int(r) - 2
    C = np.eye(n) + np.ones((n, n))
    P1 = np.eye(n)
    P1[:5, :5] = cones.berman_matrix()

    v1 = cones.in_kr_dual(P1, level, tol).value
    if v1 is None:
        raise SearchFailed("the dual solve at the Berman end gave no optimum")
    s_ext = 1.0 if v1 >= 0 else 1.0 / (1.0 - v1)
    cp = cones.is_cp((1.0 - s_ext) * C + s_ext * P1, tol=tol, effort=effort,
                     seed=seed)
    if cp.status is not Verdict.NON_MEMBER:
        raise SearchFailed(
            f"is_cp is {cp.status.value} at s_ext = {s_ext:.10f}: no "
            "copositive witness bounds the window"
        )
    key = "witness" if "witness" in cp.certificate else "M"
    W = cp.certificate[key]
    cW, pW = inner(C, W), inner(P1, W)
    s_W = cW / (cW - pW)
    s = 0.5 * (s_W + s_ext)
    P = (1.0 - s) * C + s * P1
    ext = cones.in_kr_dual(P, level, tol)
    pairing = inner(P, W)
    cp = replace(cp, value=pairing, certificate={
        **cp.certificate, "value" if key == "witness" else "pairing": pairing})
    scale = max(1.0, float(np.max(np.abs(P))))
    if not (ext.status is Verdict.MEMBER and ext.value > 0
            and pairing < -tol.feas_tol * scale
            and certificates.check(ext, P, tol)["ok"]
            and certificates.check(cp, P, tol)["ok"]):
        raise SearchFailed(
            f"no point of the window (s_W, s_ext) = ({s_W:.10f}, "
            f"{s_ext:.10f}) carries both certificates"
        )
    certs = {
        "s": float(s),
        "window": (float(s_W), float(s_ext)),
        "extendibility": ext,
        "cp_witness": W,
        "pairing": float(pairing),
        "witness_source": cp.certificate["kind"],
        "cp_verdict": cp,
    }
    return P, certs


def ext_necessary_star(pair: MatrixPair, r: int, tol=None) -> str:
    """Necessary condition for the operator of the pair to lie in the
    dual of the level-r extendible set: the symmetrization
    A + A^T + 2 Re ring(B) must belong to hierarchy level r - 1.
    Returns PASS, FAIL, or UNKNOWN; FAIL is conclusive."""
    r = int(r)
    if r < 1 or r - 1 > 2:
        raise UnsupportedLevel("supported for r in {1, 2, 3}")
    S = pair.A + pair.A.T + 2.0 * np.real(off_diag(pair.B))
    vd = cones.is_kr(symmetrize(S), r - 1, tol)
    return {
        Verdict.MEMBER: "PASS",
        Verdict.NON_MEMBER: "FAIL",
        Verdict.UNKNOWN: "UNKNOWN",
    }[vd.status]
