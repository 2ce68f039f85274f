"""Membership in the chain of cones between completely positive and copositive.

For real symmetric n x n matrices the chain, ordered by inclusion, is

    CP  ⊂  DNN  ⊂  PSD        (primal side)
    PSD ⊂  SPN  ⊂  ...  ⊂ COP (dual side)

where CP = {B B^T : B entrywise nonnegative}, DNN = PSD ∩ nonnegative,
SPN = {P + E : P psd, E symmetric nonnegative}, and COP is the copositive
cone {M : x^T M x >= 0 for all x >= 0}.  Between SPN and COP sits an
increasing family of sum-of-squares inner approximations indexed by a level
r >= 0: level r contains M iff (sum_i x_i^2)^r * sum_ij M_ij x_i^2 x_j^2 is
a sum of squares.  Level 0 coincides with SPN; every strictly copositive
matrix enters at some finite level when n <= 5.

Every decision here is certificate-producing: memberships come with Gram
decompositions or explicit factorizations, non-memberships with separating
vectors, moment functionals, or copositive witnesses.  Certificates carry
enough data to be re-verified independently of the solve that found them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations
from time import perf_counter
from typing import Optional

import numpy as np

from .linalg import (
    Tolerance,
    as_tolerance,
    check_hermitian,
    inner,
    is_entrywise_nonneg,
    is_psd,
    min_eig,
    symmetrize,
)
from .optim import SdpProblem, SdpStatus, solve_sdp

__all__ = [
    "Verdict",
    "ConeVerdict",
    "Effort",
    "SizeLimit",
    "ElementaryProfile",
    "classify_elementary",
    "is_spn",
    "is_kr",
    "in_kr_dual",
    "is_cop",
    "cop_refute",
    "is_cp",
    "cp_factor",
    "horn_matrix",
    "berman_matrix",
]


class Verdict(Enum):
    MEMBER = "member"
    NON_MEMBER = "non_member"
    UNKNOWN = "unknown"


class SizeLimit(ValueError):
    """Input size exceeds what the requested procedure supports."""


@dataclass
class ConeVerdict:
    status: Verdict
    cone: str
    certificate: dict = field(default_factory=dict)
    level: Optional[int] = None
    value: Optional[float] = None
    detail: str = ""

    @property
    def is_member(self) -> bool:
        return self.status is Verdict.MEMBER


@dataclass(frozen=True)
class Effort:
    """Search-budget knobs for the procedures that mix solves and heuristics.

    refute_starts is the number of random projected-gradient starts in
    cop_refute, where it acts only for n > 12 (no exact face scan runs
    there), and in quantum.markov_choi_check.
    """

    name: str = "default"
    max_level: int = 2
    refute_starts: int = 64
    pair_refute_starts: int = 128
    cp_rounds: int = 500
    scan_cap: int = 2000

    @staticmethod
    def of(effort) -> "Effort":
        if isinstance(effort, Effort):
            return effort
        presets = {
            "fast": Effort("fast", 1, 16, 32, 200, 400),
            "default": Effort(),
            "thorough": Effort("thorough", 2, 256, 512, 2000, 10000),
        }
        try:
            return presets[str(effort)]
        except KeyError:
            raise ValueError(f"unknown effort level {effort!r}") from None


# ---------------------------------------------------------------------------
# reference matrices


def horn_matrix() -> np.ndarray:
    """The classical 5x5 copositive matrix that is not a sum psd + nonneg.

    Entries are +1 except -1 on the 5-cycle 0-1-2-3-4-0.
    """
    H = np.ones((5, 5))
    for i in range(5):
        j = (i + 1) % 5
        H[i, j] = H[j, i] = -1.0
    return H


def berman_matrix() -> np.ndarray:
    """A 5x5 doubly nonnegative matrix that is not completely positive."""
    return np.array(
        [
            [1.0, 1.0, 0.0, 0.0, 1.0],
            [1.0, 2.0, 1.0, 0.0, 0.0],
            [0.0, 1.0, 2.0, 1.0, 0.0],
            [0.0, 0.0, 1.0, 2.0, 1.0],
            [1.0, 0.0, 0.0, 1.0, 6.0],
        ]
    )


# ---------------------------------------------------------------------------
# elementary classification


@dataclass
class ElementaryProfile:
    in_ewp: bool  # entrywise nonnegative
    in_psd: bool
    in_dnn: bool
    min_entry: float
    min_eig: float


def classify_elementary(M, tol=None) -> ElementaryProfile:
    tol = as_tolerance(tol)
    A = check_hermitian(M)
    ewp = is_entrywise_nonneg(A, tol)
    psd = is_psd(A, tol)
    me = float(np.min(np.real(A))) if A.size else 0.0
    return ElementaryProfile(ewp, psd, ewp and psd, me, min_eig(A))


def _sym_entries(n):
    """Upper-triangle index pairs with their symmetric basis matrices."""
    for i in range(n):
        for j in range(i, n):
            E = np.zeros((n, n))
            if i == j:
                E[i, i] = 1.0
            else:
                E[i, j] = E[j, i] = 0.5
            yield i, j, E


def _sym_from_upper(v, n: int, off: float = 1.0) -> np.ndarray:
    """The symmetric matrix whose upper triangle, row by row as in
    _sym_entries, is v, with off-diagonal entries scaled by off."""
    i, j = np.triu_indices(n)
    w = np.where(i == j, v, off * v)
    M = np.zeros((n, n))
    M[i, j] = M[j, i] = w
    return M


# ---------------------------------------------------------------------------
# SPN via the shifted decomposition program


def _spn_program(R, D, tol, maximize: bool = False):
    """Minimize (or maximize) t subject to R + t D = P + E, P psd and E
    symmetric nonnegative.

    One row per upper-triangle entry in _sym_entries order; blocks P, E, t.
    Returns (sol, t*, P, E as its upper-triangle vector, X) where X is the
    dual matrix read off -y: for the minimization, X >= 0, X psd,
    <X, D> = 1 and <X, R> = -t* at the optimum; for the maximization,
    <X, D> = -1 and <X, R> = t*.

    An optimal iterate is snapped to its optimal face (_spn_snap): the sigma
    certificates must be face-exact, as acceptance criterion 4 checks the
    eigenvalues of P and X on the wheel W6 against closed forms at 1e-6,
    and the iterate, stopped at its numerical floor, misses X's by 3e-6.
    """
    n = R.shape[0]
    m = n * (n + 1) // 2
    prob = SdpProblem()
    P = prob.add_psd(n)
    E = prob.add_nn(m)
    t = prob.add_free(1)
    for idx, (i, j, B) in enumerate(_sym_entries(n)):
        ev = np.zeros(m)
        ev[idx] = 1.0
        prob.add_eq(R[i, j], (P, B), (E, ev), (t, -D[i, j]))
    cost = -1.0 if maximize else 1.0
    prob.set_cost(t, cost)
    sol = solve_sdp(prob, tol)
    if sol.optimal:
        start = perf_counter()
        sol.stats["polish"] = _spn_snap(sol, R, D, cost)
        sol.stats["time"]["polish"] = perf_counter() - start
    X = _sym_from_upper(-sol.y, n, 0.5)
    return sol, cost * sol.primal_obj, sol.block(P), sol.block(E), X


def _kept(w, scale: float):
    """How many of the ascending eigenvalues w a face keeps (those above
    1e-4 of the largest, none when the largest is below 1e-9 scale), and
    the gap between them and the rest relative to the largest."""
    d = len(w)
    k = int(np.count_nonzero(w > 1e-4 * w[-1])) if w[-1] > 1e-9 * scale else 0
    gap = (w[d - k] - w[d - k - 1]) / max(w[-1], 1e-300) if 0 < k < d else 0.0
    return k, gap


def _face_map(U, iu, ju) -> np.ndarray:
    """The matrix taking the upper triangle of a symmetric M (row by row)
    to the entries (iu, ju) of U M U^T."""
    a, b = np.triu_indices(U.shape[1])
    Ui, Uj = U[iu], U[ju]
    cols = Ui[:, a] * Uj[:, b]
    off = a != b
    cols[:, off] += Ui[:, b[off]] * Uj[:, a[off]]
    return cols


def _psd_face(M) -> bool:
    """M is psd to -1e-8 relative to its largest eigenvalue."""
    w = np.linalg.eigvalsh(M) if len(M) else np.zeros(1)
    return w[0] >= -1e-8 * (1.0 + w[-1])


def _spn_snap(sol, R, D, cost: float) -> str:
    """Snap an optimal iterate of the SPN program to its optimal face.

    U spans the kept range of P and V its complement, from the eigenbasis
    of P or of the dual X, whichever has the wider relative gap; S is the
    support of E, where E exceeds its dual slack (X's entry, doubled off the
    diagonal).  One least-squares solve gives P = U M U^T, E on S and t with
    P + E - t D = R on the upper triangle, one gives X = V N V^T with X = 0
    on S and <D, X> = cost (the free column's row).  The snap replaces the
    iterate in sol only if M, N are psd and E, X nonnegative (to -1e-8
    relative) and its residuals and gap are no worse than the iterate's (or
    1e-10).  Returns "accepted" or "rejected".
    """
    n = len(R)
    iu, ju = np.triu_indices(n)
    w = np.where(iu == ju, 1.0, 2.0)  # y = -w X on the upper triangle
    r_up, d_up = R[iu, ju], D[iu, ju]
    P, E, y = sol.blocks[0], sol.blocks[1], sol.y
    X = _sym_from_upper(-y, n, 0.5)
    xinf = 1.0 + max(float(np.max(np.abs(P))), float(np.max(np.abs(E))))
    sinf = 1.0 + float(np.max(np.abs(y)))
    wP, VP = np.linalg.eigh(P)
    wX, VX = np.linalg.eigh(X)
    (r, gap_p), (k, gap_x) = _kept(wP, xinf), _kept(wX, sinf)
    if k and (r == 0 or gap_x > gap_p):
        U, V = VX[:, : n - k], VX[:, n - k :]
    else:
        U, V = VP[:, n - r :], VP[:, : n - r]
    S = E > -y
    res = sol.residuals
    bound = max(res["primal"], res["dual"], res["gap"], 1e-10)

    # primal: U M U^T + E_S - t D = R
    face = _face_map(U, iu, ju)
    z = np.linalg.lstsq(np.column_stack([face, np.eye(len(r_up))[:, S], -d_up]),
                        r_up, rcond=None)[0]
    M = _sym_from_upper(z[: face.shape[1]], U.shape[1])
    E2 = np.zeros_like(E)
    E2[S] = z[face.shape[1] : -1]
    t2 = float(z[-1])
    if not _psd_face(M) or np.any(E2 < -1e-8 * xinf):
        return "rejected"
    P2 = symmetrize(U @ M @ U.T)
    pres = (float(np.linalg.norm(P2[iu, ju] + E2 - t2 * d_up - r_up))
            / (1.0 + float(np.linalg.norm(r_up))))
    if pres > bound:
        return "rejected"

    # dual: X = V N V^T, X = 0 on S, <D, X> = cost
    face = w[:, None] * _face_map(V, iu, ju)
    rhs = np.zeros(int(np.count_nonzero(S)) + 1)
    rhs[-1] = cost
    zd = np.linalg.lstsq(np.vstack([face[S], d_up @ face]), rhs, rcond=None)[0]
    N = _sym_from_upper(zd, V.shape[1])
    X2 = symmetrize(V @ N @ V.T)
    y2 = -w * X2[iu, ju]
    slack = np.where(S, 0.0, -y2)
    if not _psd_face(N) or np.any(slack < -1e-8 * sinf):
        return "rejected"
    # cost = +-1, so the dual residual's norm 1 + |c| is 2
    dres = (float(np.linalg.norm(y2[S])) + abs(float(d_up @ y2) + cost)) / 2.0
    pobj, dobj = cost * t2, float(r_up @ y2)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    if max(pres, dres, gap) > bound:
        return "rejected"
    sol.blocks, sol.slacks = [P2, E2], [X2, slack]
    sol.free, sol.y = np.array([t2]), y2
    sol.primal_obj, sol.dual_obj = pobj, dobj
    res.update(primal=pres, dual=dres, gap=gap)
    return "accepted"


def is_spn(M, tol=None) -> ConeVerdict:
    """Decide M in SPN = {P + E : P psd, E symmetric nonnegative}.

    Solves min t s.t. M + t I = P + E (the SPN program with R = M, D = I).
    A nonpositive optimum certifies membership with the explicit split; a
    positive optimum produces a doubly nonnegative witness X with
    <X, M> < 0 from the dual, clipped to be nonnegative with trace one.
    """
    tol = as_tolerance(tol)
    A = np.real(check_hermitian(M))
    n = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(A))))
    sol, tstar, Pm, evec, X = _spn_program(A, np.eye(n), tol)
    if sol.status is not SdpStatus.OPTIMAL:
        return ConeVerdict(
            Verdict.UNKNOWN, "SPN", {}, detail=f"solver {sol.status.value}"
        )
    if tstar <= tol.feas_tol * scale:
        Pm = symmetrize(Pm)
        Em = _sym_from_upper(np.maximum(evec, 0.0), n)
        shift = max(tstar, 0.0)
        if tstar < 0:
            # absorb the slack into P, which stays psd
            Pm = Pm - tstar * np.eye(n)
            shift = 0.0
        return ConeVerdict(
            Verdict.MEMBER,
            "SPN",
            {"P": Pm, "E": Em, "shift": shift},
            value=float(tstar),
        )
    # dual witness: X doubly nonnegative, trace one, <X, M> = -t*
    X = np.maximum(symmetrize(X), 0.0)
    tr = np.trace(X)
    if tr > 0:
        X = X / tr
    # clipped X is PSD only to solver accuracy: mix in I/n (nonnegative,
    # trace one) with the least weight that lifts its lowest eigenvalue to 0
    lam = min_eig(X)
    if lam < 0:
        w = -lam / (1.0 / n - lam)
        X = (1.0 - w) * X + (w / n) * np.eye(n)
    pairing = inner(X, A)
    if not pairing < 0:
        return ConeVerdict(
            Verdict.UNKNOWN, "SPN", {}, detail="dual witness does not separate"
        )
    return ConeVerdict(
        Verdict.NON_MEMBER,
        "SPN",
        {"X": X, "pairing": pairing},
        value=float(tstar),
    )


# ---------------------------------------------------------------------------
# the sum-of-squares hierarchy


class _SosData:
    """Index tables of the level-r condition on n variables.

    The target polynomial (sum_k x_k^2)^r sum_ij M_ij x_i^2 x_j^2 has degree
    2d, d = r + 2.  Its rows are the m monomials gamma of degree d (the row
    of gamma holds the coefficient of x^{2 gamma}); the Gram basis is the
    same list, split into blocks by the parity of the exponents.

    expo     (m, n) exponents, row g being gamma = expo[g], in lexicographic
             order with the first exponent descending;
    blocks   per Gram block (a parity class of more than one monomial), its
             monomials as ascending row indices; blocks in order of their
             first monomial;
    rows     per Gram block, the (k, k) integer array whose entry (a, b) is
             the row that Gram entry feeds, (gamma_a + gamma_b) / 2;
    singles  the monomials alone in their parity class, ascending; each is
             a nonnegative scalar that feeds its own row;
    C        (m, n, n) with coeffs(M)[g] = <C[g], M>: C[g, i, j] =
             r! g_i (g_j - delta_ij) / prod_k g_k!.
    """

    def __init__(self, n: int, r: int):
        self.n, self.r, self.d = n, r, r + 2
        d = self.d
        # sorted variable tuples in lexicographic order give the exponents
        # in lexicographic order, descending
        var = np.array(list(combinations_with_replacement(range(n), d)))
        self.expo = expo = np.sum(var.reshape(-1, d, 1) == np.arange(n), axis=1)
        # exponents read as base d + 1 digits: linear, descending in row
        # order, and exact in int64 far beyond _sos_limits (n <= 26 at r = 2)
        key = expo @ (d + 1) ** np.arange(n - 1, -1, -1, dtype=np.int64)
        parity = (expo & 1) @ (1 << np.arange(n, dtype=np.int64))
        _, first, cls = np.unique(parity, return_index=True, return_inverse=True)
        count = np.bincount(cls)
        self.singles = np.flatnonzero(count[cls] == 1)
        self.blocks = [
            np.flatnonzero(cls == c) for c in np.argsort(first) if count[c] > 1
        ]
        self.rows = [
            np.searchsorted(-key, -((key[g][:, None] + key[g][None, :]) // 2))
            for g in self.blocks
        ]
        fact = np.array([math.factorial(k) for k in range(d + 1)])
        num = math.factorial(r) * expo[:, :, None] * (
            expo[:, None, :] - np.eye(n, dtype=np.int64)
        )
        self.C = num / np.prod(fact[expo], axis=1)[:, None, None]

    def coeffs(self, M) -> np.ndarray:
        return np.einsum("gij,ij->g", self.C, np.asarray(M, dtype=float))

    def adjoint(self, z) -> np.ndarray:
        """The symmetric matrix L with <L, M> = z . coeffs(M) for all M."""
        return np.einsum("gij,g->ij", self.C, np.asarray(z, dtype=float))

    def monomials(self, idxs) -> list:
        """The exponent tuples of the rows idxs."""
        return [tuple(e) for e in self.expo[idxs].tolist()]


@lru_cache(maxsize=None)
def _sos_data(n: int, r: int) -> _SosData:
    return _SosData(n, r)


def _sos_problem(sd: _SosData, M0, families):
    """Rows: gram coefficients of x^{2 gamma} minus the family part equal
    coeffs(M0); families contribute free multipliers theta_k on coeffs(F_k),
    i.e.  T(G) - sum_k theta_k coeffs(F_k) = coeffs(M0).  A row's term in a
    Gram block is the 0/1 matrix of the entries that feed it."""
    prob = SdpProblem()
    grams = [prob.add_psd(len(idxs)) for idxs in sd.blocks]
    singles = prob.add_nn(len(sd.singles)) if len(sd.singles) else None
    theta = prob.add_free(len(families))
    terms = [[] for _ in sd.expo]
    for ref, rows in zip(grams, sd.rows):
        fed, at = np.unique(rows, return_inverse=True)
        E = np.zeros((len(fed), ref.dim, ref.dim))
        E[(at.reshape(rows.shape), *np.indices(rows.shape))] = 1.0
        for g, Eg in zip(fed.tolist(), E):
            terms[g].append((ref, Eg))
    if singles is not None:
        for g, ev in zip(sd.singles.tolist(), np.eye(singles.dim)):
            terms[g].append((singles, ev))
    c0 = sd.coeffs(M0)
    cf = -np.array([sd.coeffs(F) for F in families]).T
    for g, row in enumerate(terms):
        prob.add_eq(c0[g], *row, (theta, cf[g]))
    return prob, grams, singles, theta


def _moment_blocks(sol, grams, singles):
    """Dual slacks organized as psd moment blocks plus singleton values."""
    return {
        "blocks": [symmetrize(sol.slack(g)) for g in grams],
        "singles": np.asarray(sol.slack(singles), dtype=float)
        if singles is not None
        else np.array([]),
    }


def _gram_from_solution(sd, sol, grams, singles, D=None, shift=0.0):
    """Package the Gram certificate, optionally adding shift * coeffs(D) on
    the diagonal (the row a diagonal entry feeds is its own monomial's)."""
    dvec = sd.coeffs(D) if shift else None
    blocks = []
    for ref, idxs in zip(grams, sd.blocks):
        G = symmetrize(sol.block(ref))
        if shift:
            G = G + shift * np.diag(dvec[idxs])
        blocks.append({"monomials": sd.monomials(idxs), "G": G})
    svals = np.array([])
    if singles is not None:
        svals = np.maximum(np.asarray(sol.block(singles), dtype=float), 0.0)
        if shift:
            svals = svals + shift * dvec[sd.singles]
    return {
        "blocks": blocks,
        "single_monomials": sd.monomials(sd.singles),
        "singles": svals,
    }


def gram_coefficient_vector(sd: _SosData, cert: dict) -> np.ndarray:
    """Polynomial coefficients represented by a Gram certificate: each
    upper-triangle entry adds to the row it feeds, twice off the diagonal."""
    m = len(sd.expo)
    out = np.zeros(m)
    for rows, blk in zip(sd.rows, cert["blocks"]):
        a, b = np.triu_indices(len(rows))
        w = np.where(a == b, 1.0, 2.0) * np.asarray(blk["G"])[a, b]
        out += np.bincount(rows[a, b], weights=w, minlength=m)
    out[sd.singles] += cert["singles"]
    return out


def verify_gram(n, r, M, cert, tol=None) -> bool:
    """Check a Gram certificate against the target matrix."""
    tol = as_tolerance(tol)
    sd = _sos_data(n, r)
    shapes = [np.shape(blk["G"]) for blk in cert["blocks"]]
    if (shapes != [rows.shape for rows in sd.rows]
            or np.shape(cert["singles"]) != sd.singles.shape):
        return False
    target = sd.coeffs(M)
    got = gram_coefficient_vector(sd, cert)
    scale = max(1.0, float(np.max(np.abs(target))))
    if float(np.max(np.abs(got - target))) > 10 * tol.feas_tol * scale:
        return False
    for blk in cert["blocks"]:
        if min_eig(blk["G"]) < -10 * tol.eig_tol * scale:
            return False
    if len(cert["singles"]) and float(np.min(cert["singles"])) < -tol.feas_tol:
        return False
    return True


def _sos_limits(n: int, r: int) -> str | None:
    """Why level r of the hierarchy is out of scope at order n, or None.

    The one size rule of every hierarchy solve: levels 0, 1, 2 (anything
    else is a ValueError), n <= 16, and n <= 8 at level 2.
    """
    if r not in (0, 1, 2):
        raise ValueError("level r must be 0, 1 or 2")
    if r == 2 and n > 8:
        return "level 2 is supported for n <= 8"
    if n > 16:
        return "matrices up to n = 16 are supported"
    return None


def _kr_program(R, D, r: int, tol):
    """Minimize t subject to R + t D in level r of the hierarchy.

    The rows of _sos_problem with the one family D; out of _sos_limits'
    scope it raises SizeLimit.  Returns (sol, t*, gram, z, moment blocks):
    gram is the Gram certificate of R + max(t*, 0) D (for t* < 0 its
    diagonal absorbs -t* coeffs(D), which keeps it psd for D >= 0), z = -y
    the dual functional on the monomials, with its moment blocks.  is_kr
    calls it with (M, I), graphs.theta_r with (-J, I + A).
    """
    n = len(R)
    if why := _sos_limits(n, r):
        raise SizeLimit(why)
    sd = _sos_data(n, r)
    prob, grams, singles, theta = _sos_problem(sd, R, [D])
    prob.set_cost(theta, [1.0])
    sol = solve_sdp(prob, as_tolerance(tol))
    tstar = float(sol.primal_obj)
    gram = _gram_from_solution(sd, sol, grams, singles, D, max(-tstar, 0.0))
    z = -sol.y[: len(sd.expo)]
    return sol, tstar, gram, z, _moment_blocks(sol, grams, singles)


def is_kr(M, r: int, tol=None) -> ConeVerdict:
    """Decide membership at level r of the sum-of-squares hierarchy.

    Supported levels are 0, 1, 2 for n <= 16; level 2 is limited to n <= 8
    (``_sos_limits``), and larger inputs raise SizeLimit.  Level 0
    agrees with is_spn (decided through an independent formulation there).
    Membership produces a Gram certificate; non-membership produces a moment
    functional z with moment matrices psd, z normalized against the identity
    direction, and z . coeffs(M) < 0.
    """
    tol = as_tolerance(tol)
    A = np.real(check_hermitian(M))
    n = A.shape[0]
    sol, tstar, gram, z, blocks = _kr_program(A, np.eye(n), r, tol)
    cone = f"K^({r})"
    if sol.status is not SdpStatus.OPTIMAL:
        return ConeVerdict(
            Verdict.UNKNOWN, cone, {}, level=r, detail=f"solver {sol.status.value}"
        )
    scale = max(1.0, float(np.max(np.abs(A))))
    if tstar <= tol.feas_tol * scale:
        gram["shift"] = max(tstar, 0.0)
        return ConeVerdict(Verdict.MEMBER, cone, gram, level=r, value=tstar)
    sd = _sos_data(n, r)
    cert = {
        "moment": z,
        "normalization": float(z @ sd.coeffs(np.eye(n))),
        "pairing": float(z @ sd.coeffs(A)),
        "moment_blocks": blocks,
    }
    return ConeVerdict(Verdict.NON_MEMBER, cone, cert, level=r, value=tstar)


def in_kr_dual(P, r: int, tol=None) -> ConeVerdict:
    """Decide membership of P in the dual cone of hierarchy level r.

    Minimizes <P, M> over level-r members M normalized by <I + J, M> = 1
    (the normalization keeps the section compact since I + J is interior to
    the completely positive cone).  A nonnegative optimum certifies
    membership via the decomposition P = y0 (I + J) + L*(z) with y0 >= 0 and
    moment matrices of z psd; a negative optimum returns the minimizing M
    together with its Gram certificate.  Levels and sizes follow is_kr's
    rule (``_sos_limits``), so n > 16 raises SizeLimit.
    """
    tol = as_tolerance(tol)
    A = np.real(check_hermitian(P))
    n = A.shape[0]
    if why := _sos_limits(n, r):
        raise SizeLimit(why)
    cone = f"K^({r})*"
    scale = max(1.0, float(np.max(np.abs(A))))
    sd = _sos_data(n, r)
    basis = [B for _, _, B in _sym_entries(n)]
    prob, grams, singles, theta = _sos_problem(sd, np.zeros((n, n)), basis)
    IJ = np.eye(n) + np.ones((n, n))
    prob.add_eq(1.0, (theta, [inner(IJ, B) for B in basis]))
    prob.set_cost(theta, [inner(A, B) for B in basis])
    sol = solve_sdp(prob, tol)
    if sol.status is not SdpStatus.OPTIMAL:
        return ConeVerdict(
            Verdict.UNKNOWN, cone, {}, level=r, detail=f"solver {sol.status.value}"
        )
    vstar = float(sol.primal_obj)
    nrow = len(sd.expo)
    if vstar >= -tol.feas_tol * scale:
        z = -sol.y[:nrow]
        y0 = float(sol.y[nrow])
        cert = {
            "y0": y0,
            "moment": z,
            "recon_residual": float(
                np.max(np.abs(A - (y0 * IJ + sd.adjoint(z))))
            ),
            "moment_blocks": _moment_blocks(sol, grams, singles),
        }
        return ConeVerdict(Verdict.MEMBER, cone, cert, level=r, value=vstar)
    Mstar = _sym_from_upper(sol.free, n, 0.5)
    cert = {
        "M": Mstar,
        "pairing": inner(A, Mstar),
        "gram": _gram_from_solution(sd, sol, grams, singles),
    }
    return ConeVerdict(Verdict.NON_MEMBER, cone, cert, level=r, value=vstar)


# ---------------------------------------------------------------------------
# copositivity


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the standard simplex."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u * np.arange(1, len(v) + 1) > css)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


@lru_cache(maxsize=None)
def _supports(n: int, k: int):
    """All k-subsets of range(n) as a (C(n, k), k) index array, with masks."""
    idx = np.array(list(combinations(range(n), k)), dtype=np.intp)
    masks = np.sum(1 << idx, axis=1)
    idx.setflags(write=False)
    masks.setflags(write=False)
    return idx, masks


def _face_solves(subs: np.ndarray) -> np.ndarray:
    """Solve sub x = 1 for a stack of faces; NaN rows where none is exact.

    One stacked solve per face size; a singular face sends that size back
    to one solve per face, with a least-squares fallback accepted at
    residual 1e-9.
    """
    k = subs.shape[1]
    try:
        return np.linalg.solve(subs, np.ones(subs.shape[:2] + (1,)))[..., 0]
    except np.linalg.LinAlgError:
        pass
    ones = np.ones(k)
    out = np.full(subs.shape[:2], np.nan)
    for t, sub in enumerate(subs):
        try:
            out[t] = np.linalg.solve(sub, ones)
        except np.linalg.LinAlgError:
            xr, *_ = np.linalg.lstsq(sub, ones, rcond=None)
            if np.max(np.abs(sub @ xr - ones)) <= 1e-9:
                out[t] = xr
    return out


def _support_scan(M: np.ndarray):
    """Enumerate simplex-face critical points; exact for nonsingular faces.

    On each support I with M_II x = 1 solvable and x of one sign, x / 1ᵀx
    is a critical point with value 1 / 1ᵀx.  A negative minimum over the
    simplex is always attained on a face with M_II nonsingular, so it is
    found exactly.  Ties go to the vertex, then to the smallest support
    mask.  Returns (best value, best vector on the simplex).
    """
    n = M.shape[0]
    i = int(np.argmin(np.diag(M)))
    best = (float(M[i, i]), -1)  # (value, support mask)
    best_x = np.zeros(n)
    best_x[i] = 1.0
    for k in range(2, n + 1):
        idx, masks = _supports(n, k)
        X = _face_solves(M[idx[:, :, None], idx[:, None, :]])
        s = X.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = np.abs(s) >= 1e-12
            Xf = X / s[:, None]
            ok &= ~(np.min(Xf, axis=1) < 0.0)
            vals = 1.0 / s
        if not ok.any():
            continue
        cand = np.flatnonzero(ok)
        vals_ok = vals[cand]
        lo = vals_ok.min()
        tied = cand[vals_ok == lo]
        t = tied[np.argmin(masks[tied])]
        key = (float(lo), int(masks[t]))
        if key < best:
            best = key
            best_x = np.zeros(n)
            best_x[idx[t]] = Xf[t]
    return best[0], best_x


def _proj_grad(M: np.ndarray, x0: np.ndarray, iters: int = 200):
    """Projected gradient descent of x^T M x on the simplex."""
    x = project_simplex(x0)
    f = float(x @ M @ x)
    eta = 1.0 / (float(np.linalg.norm(M)) + 1.0)
    for _ in range(iters):
        g = 2.0 * (M @ x)
        improved = False
        for _ in range(30):
            xn = project_simplex(x - eta * g)
            fn = float(xn @ M @ xn)
            if fn < f - 1e-14:
                x, f = xn, fn
                eta *= 1.2
                improved = True
                break
            eta *= 0.5
            if eta < 1e-16:
                break
        if not improved:
            break
    return f, x


def cop_refute(M, tol=None, effort="default", seed: int = 0):
    """Search for x >= 0 on the simplex with x^T M x < 0.

    For n <= 12 this is the exhaustive face scan alone, which attains a
    negative simplex minimum exactly (Kaplan, LAA 313, 2000), so `effort`
    and `seed` have no effect there.  For n > 12 it runs effort.refute_starts
    seeded projected-gradient descents instead.  Returns (best value, best
    vector); the value is a certified upper bound for min_{simplex} x^T M x
    since the vector is returned and can be re-evaluated.
    """
    eff = Effort.of(effort)
    A = np.real(check_hermitian(M))
    n = A.shape[0]
    best_val, best_x = np.inf, None
    if n <= 12:
        best_val, best_x = _support_scan(A)
    else:
        rng = np.random.default_rng(seed)
        for _ in range(eff.refute_starts):
            x0 = rng.dirichlet(np.ones(n))
            f, x = _proj_grad(A, x0)
            if f < best_val:
                best_val, best_x = f, x
    if best_x is not None:
        best_x = np.maximum(best_x, 0.0)
        s = best_x.sum()
        if s > 0:
            best_x = best_x / s
        best_val = float(best_x @ A @ best_x)
    return best_val, best_x


def is_cop(M, tol=None, effort="default", seed: int = 0) -> ConeVerdict:
    """Decide copositivity via the hierarchy plus a refutation search.

    MEMBER when some level r <= effort.max_level certifies it (the level is
    recorded); NON_MEMBER when a nonnegative vector with negative quadratic
    form is found; UNKNOWN otherwise.
    """
    tol = as_tolerance(tol)
    eff = Effort.of(effort)
    A = np.real(check_hermitian(M))
    n = A.shape[0]
    scale = max(1.0, float(np.max(np.abs(A))))
    val, x = cop_refute(A, tol, eff, seed)
    if val < -tol.feas_tol * scale:
        return ConeVerdict(
            Verdict.NON_MEMBER,
            "COP",
            {"vector": x, "value": float(val)},
            value=float(val),
        )
    notes = []
    for r in range(0, eff.max_level + 1):
        if why := _sos_limits(n, r):
            notes.append(f"level {r} skipped ({why})")
            continue
        sub = is_kr(A, r, tol)
        if sub.status is Verdict.MEMBER:
            return ConeVerdict(
                Verdict.MEMBER,
                "COP",
                {"inner_cone": sub.cone, "gram": sub.certificate},
                level=r,
                value=sub.value,
            )
        notes.append(f"level {r}: {sub.status.value}")
    return ConeVerdict(
        Verdict.UNKNOWN,
        "COP",
        {"refuter_min": float(val)},
        detail="; ".join(notes),
    )


# ---------------------------------------------------------------------------
# complete positivity


def cp_factor(M, max_rounds: int = 500, seed: int = 0, tol=None):
    """Try to factor M = B B^T with B entrywise nonnegative.

    Alternating projections between the manifold {B : B B^T = M} and the
    nonnegative orthant, with a spectral start followed by seeded random
    rotations.  Returns B or None.  Inner dimension is n(n+1)/2.
    """
    tol = as_tolerance(tol)
    A = np.real(check_hermitian(M))
    n = A.shape[0]
    w, V = np.linalg.eigh(A)
    if w[0] < -10 * max(1.0, w[-1]) * 1e-9:
        return None
    w = np.maximum(w, 0.0)
    root = V @ np.diag(np.sqrt(w))
    k = n * (n + 1) // 2
    scale = max(1.0, float(np.max(np.abs(A))))
    Lpad = np.zeros((n, k))
    Lpad[:, :n] = root
    rng = np.random.default_rng(seed)

    def attempt(B0):
        B = B0
        for _ in range(max_rounds):
            Bc = np.maximum(B, 0.0)
            err = float(np.max(np.abs(Bc @ Bc.T - A)))
            if err <= tol.feas_tol * scale:
                return Bc
            U, _, Vt = np.linalg.svd(Lpad.T @ Bc, full_matrices=False)
            B = Lpad @ (U @ Vt)
        return None

    B = attempt(Lpad)
    if B is not None:
        return B
    for _ in range(4):
        Q, _ = np.linalg.qr(rng.standard_normal((k, k)))
        B = attempt(Lpad @ Q.T)
        if B is not None:
            return B
    return None


@lru_cache(maxsize=None)
def _horn_relabelings() -> tuple:
    """Distinct matrices P H P^T over vertex relabelings of the 5-cycle,
    as read-only arrays."""
    H = horn_matrix()
    seen = {}
    for perm in permutations(range(5)):
        P = np.zeros((5, 5))
        for a, b in enumerate(perm):
            P[b, a] = 1.0
        Q = P @ H @ P.T
        Q.setflags(write=False)
        seen.setdefault(Q.tobytes(), Q)
    return tuple(seen.values())


def _scaled_horn_witness(M: np.ndarray, tol: Tolerance, cap: int):
    """Search for a copositive witness D (P H P^T) D with <W, M> < 0.

    H is the 5-cycle matrix from horn_matrix(), D a nonnegative diagonal
    supported on a 5-subset.  Such W are copositive for every choice, so a
    negative pairing refutes complete positivity.
    """
    n = M.shape[0]
    if n < 5:
        return None
    scale = max(1.0, float(np.max(np.abs(M))))
    count = 0
    best = None
    for S in combinations(range(n), 5):
        sub = M[np.ix_(S, S)]
        for Hp in _horn_relabelings():
            count += 1
            if count > cap:
                break
            val, d = _support_scan(Hp * sub)
            if d is None:
                continue
            if val < -tol.feas_tol * scale and (best is None or val < best[0]):
                best = (val, S, Hp, d)
        if count > cap:
            break
    if best is None:
        return None
    val, S, Hp, d = best
    W = np.zeros((n, n))
    D = np.diag(d)
    W[np.ix_(S, S)] = D @ Hp @ D
    return {
        "witness": W,
        "value": float(inner(W, M)),
        "support": list(S),
        "diag": d,
        "kind": "cycle-scaled",
    }


def is_cp(M, tol=None, effort="default", seed: int = 0) -> ConeVerdict:
    """Decide complete positivity.

    n <= 4 reduces exactly to the doubly nonnegative test.  Otherwise a
    nonnegative factorization is attempted for membership, and witnesses
    copositive against M are searched for refutation: scaled 5-cycle forms
    first, then dual-hierarchy separation.  UNKNOWN when neither side lands
    (the cone is not tractably decidable in general from n = 5 up).
    """
    tol = as_tolerance(tol)
    eff = Effort.of(effort)
    A = np.real(check_hermitian(M))
    n = A.shape[0]
    prof = classify_elementary(A, tol)
    if not prof.in_psd:
        w, V = np.linalg.eigh(A)
        v = V[:, 0]
        Wit = np.outer(v, v)
        return ConeVerdict(
            Verdict.NON_MEMBER,
            "CP",
            {"witness": Wit, "value": float(w[0]), "kind": "psd-violation"},
            value=float(w[0]),
        )
    if not prof.in_ewp:
        i, j = np.unravel_index(np.argmin(A), A.shape)
        Wit = np.zeros((n, n))
        Wit[i, j] = Wit[j, i] = 1.0
        return ConeVerdict(
            Verdict.NON_MEMBER,
            "CP",
            {"witness": Wit, "value": 2 * float(A[i, j]), "kind": "sign-violation"},
            value=float(A[i, j]),
        )
    if n <= 4:
        B = cp_factor(A, eff.cp_rounds, seed, tol)
        cert = {"route": "low-dimensional equivalence with DNN"}
        if B is not None:
            cert["factor"] = B
        return ConeVerdict(Verdict.MEMBER, "CP", cert)
    B = cp_factor(A, eff.cp_rounds, seed, tol)
    if B is not None:
        return ConeVerdict(
            Verdict.MEMBER,
            "CP",
            {"factor": B, "residual": float(np.max(np.abs(B @ B.T - A)))},
        )
    wit = _scaled_horn_witness(A, tol, eff.scan_cap)
    if wit is not None:
        return ConeVerdict(Verdict.NON_MEMBER, "CP", wit, value=wit["value"])
    # dual-side separation at low hierarchy levels
    notes = []
    for r in (1, 2):
        if r == 2 and eff.max_level < 2:
            break
        if why := _sos_limits(n, r):
            notes.append(f"level {r} skipped ({why})")
            continue
        sub = in_kr_dual(A, r, tol)
        if sub.status is Verdict.NON_MEMBER:
            cert = dict(sub.certificate)
            cert["kind"] = f"dual-hierarchy level {r}"
            return ConeVerdict(
                Verdict.NON_MEMBER, "CP", cert, level=r, value=sub.value
            )
    return ConeVerdict(
        Verdict.UNKNOWN,
        "CP",
        {},
        detail="; ".join(
            ["factorization did not converge and no witness was found", *notes]
        ),
    )
