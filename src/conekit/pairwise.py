"""Cones of matrix pairs sharing a diagonal, and their membership tests.

A pair (A, B) couples a real matrix A with a hermitian matrix B whose
diagonals agree.  The cones tested here are, in decreasing strength:

    PCP  (pairwise completely positive)
      subset of  CLDUI+  (A entrywise nonneg, B psd)
      subset of  PDEC    (pairwise decomposable)
      subset of  COPCP   (pairwise copositive).

COPCP membership means the sesquilinear form

    <v o conj(v), A (w o conj(w))> + <v o w, ring(B) (v o w)>  >= 0

for all complex vectors v, w, where `o` is the entrywise product and
ring(B) denotes B with its diagonal removed.  Exact COPCP membership is
intractable in general; the oracle combines sufficient routes with a
refutation search and returns UNKNOWN when neither side lands.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import (
    Tolerance,
    as_square,
    as_tolerance,
    check_hermitian,
    inner,
    is_entrywise_nonneg,
    is_psd,
    min_eig,
    off_diag,
    symmetrize,
)
from . import cones
from .cones import Effort, Verdict
from .optim import SdpProblem, SdpStatus, solve_sdp

__all__ = [
    "DiagonalMismatch",
    "PreconditionError",
    "MatrixPair",
    "PairVerdict",
    "pair_form",
    "copcp_form_value",
    "form_value_batch",
    "pair_inner",
    "necessary_filters",
    "is_copcp",
    "lift_check",
    "is_pdec",
    "pdec_sufficient",
    "spn_lift_check",
    "is_pdnn",
    "is_cldui_plus",
    "pcp_checks",
    "verify_pair",
]


class DiagonalMismatch(ValueError):
    """The two matrices of a pair must share a real diagonal."""


class PreconditionError(ValueError):
    """A lifting theorem's hypotheses do not hold for the given input."""


@dataclass(frozen=True)
class MatrixPair:
    """A validated pair (A real, B hermitian) with matching diagonals."""

    A: np.ndarray
    B: np.ndarray
    n: int

    def ring_b(self) -> np.ndarray:
        return off_diag(self.B)

    def scale(self) -> float:
        return 1.0 + float(np.max(np.abs(self.A))) + float(np.max(np.abs(self.B)))


@dataclass
class PairVerdict:
    status: Verdict
    cone: str
    certificate: dict
    value: Optional[float] = None
    detail: str = ""

    @property
    def is_member(self) -> bool:
        return self.status is Verdict.MEMBER


def pair_form(A, B) -> MatrixPair:
    """Validate and package a pair; raises DiagonalMismatch when invalid."""
    A = as_square(A)
    if np.iscomplexobj(A):
        if float(np.max(np.abs(A.imag))) > 1e-12:
            raise ValueError("A must be real")
        A = A.real.copy()
    A = A.astype(float)
    B = as_square(B)
    if A.shape != B.shape:
        raise DiagonalMismatch("A and B must have the same shape")
    # relative to the entries, so that rounding at large scale passes
    slack = 1e-12 * max(1.0, float(np.max(np.abs(A))), float(np.max(np.abs(B))))
    # before hermitizing, which would make the diagonal exactly real
    if float(np.max(np.abs(np.diag(B).imag))) > slack:
        raise DiagonalMismatch("diagonal of B must be real")
    B = check_hermitian(B)
    dA, dB = np.diag(A), np.diag(B)
    if float(np.max(np.abs(dA - dB.real))) > slack:
        raise DiagonalMismatch("diag(A) and diag(B) must agree")
    A.setflags(write=False)
    B.setflags(write=False)
    return MatrixPair(A, B, A.shape[0])


def copcp_form_value(pair: MatrixPair, v, w) -> float:
    """The defining form of pairwise copositivity at vectors v, w."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    w = np.asarray(w, dtype=complex).reshape(-1)
    if v.shape != (pair.n,) or w.shape != (pair.n,):
        raise ValueError("vector length mismatch")
    pv = np.abs(v) ** 2
    pw = np.abs(w) ** 2
    z = v * w
    val = pv @ pair.A @ pw + np.vdot(z, pair.ring_b() @ z)
    if abs(val.imag) > 1e-10 * pair.scale():
        raise ArithmeticError("form value has a non-negligible imaginary part")
    return float(val.real)


def form_value_batch(pair: MatrixPair, V, W) -> np.ndarray:
    """copcp_form_value across rows of V and W (k x n arrays)."""
    V = np.asarray(V, dtype=complex)
    W = np.asarray(W, dtype=complex)
    PV = np.abs(V) ** 2
    PW = np.abs(W) ** 2
    Z = V * W
    t1 = np.einsum("ki,ij,kj->k", PV, pair.A, PW)
    Bo = pair.ring_b()
    t2 = np.einsum("ki,ij,kj->k", Z.conj(), Bo, Z)
    return (t1 + t2).real


def pair_inner(p: MatrixPair, q: MatrixPair) -> float:
    """<(A1,B1),(A2,B2)> = <A1,A2> + <ring B1, ring B2>."""
    return inner(p.A, q.A) + inner(p.ring_b(), q.ring_b())


# ---------------------------------------------------------------------------
# necessary conditions


def _modulus(B) -> np.ndarray:
    """Entrywise |B| through hypot, which rounds like the scalar abs();
    numpy's vectorized complex abs can differ from it in the last bit."""
    return np.hypot(B.real, B.imag)


def necessary_filters(pair: MatrixPair, tol=None, effort="default",
                      seed: int = 0) -> dict:
    """Three conditions every pairwise copositive pair satisfies.

    Any FAIL certifies non-membership; all-PASS is inconclusive.  The
    symmetrized filter only refutes: it searches for x >= 0 with
    x^T (A + A^T + 2 Re ring B) x < 0 and certifies nothing.  For n <= 12
    that search is an exact face scan, so PASS means no such x exists
    within tolerance; for n > 12 a failed search reports UNKNOWN.
    """
    tol = as_tolerance(tol)
    eff = Effort.of(effort)
    A, B, n = pair.A, pair.B, pair.n
    scale = pair.scale()
    report: dict = {}

    worst = float(np.min(A))
    if worst < -tol.feas_tol * scale:
        i, j = np.unravel_index(int(np.argmin(A)), A.shape)
        report["A_entrywise"] = ("FAIL", {"entry": (int(i), int(j)),
                                          "value": worst})
    else:
        report["A_entrywise"] = ("PASS", {"min_entry": worst})

    S = A + A.T + 2 * np.real(off_diag(B))
    val, x = cones.cop_refute(S, tol=tol, effort=eff, seed=seed)
    if val < -tol.feas_tol * max(1.0, float(np.max(np.abs(S)))):
        report["symmetrized_cop"] = ("FAIL", {"vector": x, "value": val})
    else:
        report["symmetrized_cop"] = ("PASS" if n <= 12 else "UNKNOWN",
                                     {"refuter_min": val})

    d = np.diag(A)
    g = (np.sqrt(np.maximum(d[:, None] * d[None, :], 0.0))
         + np.sqrt(np.maximum(A * A.T, 0.0)) - _modulus(B))
    np.fill_diagonal(g, np.inf)
    # argmin takes the first minimum in row-major order
    worst_pair = tuple(int(k) for k in np.unravel_index(np.argmin(g), g.shape))
    worst_val = g[worst_pair]
    if worst_val < -tol.feas_tol * scale:
        report["entry_inequality"] = ("FAIL", {"entry": worst_pair,
                                               "margin": float(worst_val)})
    else:
        report["entry_inequality"] = ("PASS", {"margin": float(worst_val)})
    return report


# ---------------------------------------------------------------------------
# refutation search for the copositive-type form


def _phase_sweep(Bo, m, psi, sweeps=2):
    n = len(m)
    for _ in range(sweeps):
        for i in range(n):
            ci = Bo[i] @ m - Bo[i, i] * m[i]
            if abs(ci) > 1e-15:
                psi[i] = np.pi + np.angle(ci)
                m[i] = abs(m[i]) * np.exp(1j * psi[i])
    return m, psi


def _magnitude_descent(A, G, a, b, iters=40):
    def f(a, b):
        ab = a * b
        return (a ** 2) @ A @ (b ** 2) + ab @ G @ ab

    cur = f(a, b)
    step = 0.5
    for _ in range(iters):
        ab = a * b
        Gab = G @ ab
        ga = 2 * a * (A @ (b ** 2)) + 2 * b * Gab
        gb = 2 * b * (A.T @ (a ** 2)) + 2 * a * Gab
        moved = False
        while step > 1e-8:
            na = np.clip(a - step * ga, 0.0, None)
            nb = np.clip(b - step * gb, 0.0, None)
            sa, sb = np.linalg.norm(na), np.linalg.norm(nb)
            if sa < 1e-12 or sb < 1e-12:
                step *= 0.5
                continue
            na, nb = na / sa, nb / sb
            val = f(na, nb)
            if val < cur - 1e-14:
                a, b, cur = na, nb, val
                moved = True
                step *= 1.3
                break
            step *= 0.5
        if not moved:
            break
    return a, b, cur


def _refute_copcp(pair: MatrixPair, eff: Effort, seed: int, support=None):
    """Search for vectors making the pairwise form negative.

    Magnitudes live on unit spheres (the form is biquadratic), phases enter
    only through the combined angle of v o w and are optimized by cyclic
    exact updates; magnitudes follow by projected gradient.
    Returns (best value, v, w).
    """
    n = pair.n
    idx = np.arange(n) if support is None else np.asarray(support, dtype=int)
    k = len(idx)
    A = pair.A[np.ix_(idx, idx)]
    Bo = pair.ring_b()[np.ix_(idx, idx)]
    rng = np.random.default_rng(seed)
    best = (np.inf, None, None)

    starts = []
    u = np.ones(k) / np.sqrt(k)
    starts.append((u.copy(), u.copy(), np.zeros(k)))
    starts.append((u.copy(), u.copy(), rng.uniform(0, 2 * np.pi, size=k)))
    for _ in range(eff.pair_refute_starts):
        a = np.sqrt(rng.dirichlet(np.ones(k)))
        b = np.sqrt(rng.dirichlet(np.ones(k)))
        psi = rng.uniform(0, 2 * np.pi, size=k)
        starts.append((a, b, psi))

    for a, b, psi in starts:
        for _ in range(4):
            m = a * b * np.exp(1j * psi)
            m, psi = _phase_sweep(Bo, m, psi)
            ph = np.exp(1j * (psi[None, :] - psi[:, None]))
            G = np.real(Bo * ph)
            a, b, val = _magnitude_descent(A, G, a, b)
        if val < best[0]:
            v = np.zeros(n, dtype=complex)
            w = np.zeros(n, dtype=complex)
            v[idx] = a
            w[idx] = b * np.exp(1j * psi)
            val_exact = copcp_form_value(pair, v, w)
            if val_exact < best[0]:
                best = (val_exact, v, w)
    return best


# ---------------------------------------------------------------------------
# COPCP oracle


def is_copcp(pair: MatrixPair, tol=None, effort="default",
             seed: int = 0) -> PairVerdict:
    """Tri-state pairwise copositivity test.

    Membership routes, cheapest first: the entrywise/psd sufficient
    condition, pairwise decomposability, and the copositive lifting that
    applies when the off-diagonal of B is entrywise nonpositive.  On the
    refutation side, failed necessary filters are converted into explicit
    violating vectors whenever possible, and a multistart search over
    (v, w) is run last.
    """
    tol = as_tolerance(tol)
    eff = Effort.of(effort)
    A, B = pair.A, pair.B
    scale = pair.scale()

    report = necessary_filters(pair, tol=tol, effort=eff, seed=seed)
    tag, info = report["A_entrywise"]
    if tag == "FAIL":
        i, j = info["entry"]
        v = np.zeros(pair.n)
        w = np.zeros(pair.n)
        v[i] = 1.0
        w[j] = 1.0
        return PairVerdict(
            Verdict.NON_MEMBER, "copcp",
            {"v": v.astype(complex), "w": w.astype(complex),
             "value": float(A[i, j]), "filter": "A_entrywise"},
            value=float(A[i, j]),
            detail="negative entry of A refutes the form at unit vectors",
        )
    tag, info = report["symmetrized_cop"]
    if tag == "FAIL":
        s = np.sqrt(np.clip(info["vector"], 0.0, None))
        val = copcp_form_value(pair, s, s)
        if val < -tol.feas_tol * scale:
            return PairVerdict(
                Verdict.NON_MEMBER, "copcp",
                {"v": s.astype(complex), "w": s.astype(complex),
                 "value": val, "filter": "symmetrized_cop"},
                value=val,
                detail="copositivity refuter on A+A^T+2Re(ring B)",
            )
    tag, info = report["entry_inequality"]
    if tag == "FAIL":
        val, v, w = _refute_copcp(pair, eff, seed, support=list(info["entry"]))
        if val < -tol.feas_tol * scale:
            return PairVerdict(
                Verdict.NON_MEMBER, "copcp",
                {"v": v, "w": w, "value": val, "filter": "entry_inequality"},
                value=val, detail="two-coordinate refutation",
            )

    if is_cldui_plus(pair, tol=tol):
        return PairVerdict(
            Verdict.MEMBER, "copcp", {"route": "cldui+"},
            detail="A entrywise nonneg and B psd",
        )
    dec = is_pdec(pair, tol=tol)
    if dec.status is Verdict.MEMBER:
        cert = dict(dec.certificate)
        cert["route"] = "pdec"
        return PairVerdict(Verdict.MEMBER, "copcp", cert,
                           detail="pairwise decomposable")

    symmetric_A = bool(np.max(np.abs(A - A.T)) <= 1e-12)
    b_real = bool(np.max(np.abs(B.imag)) <= 1e-12)
    ringB = np.real(off_diag(B))
    if symmetric_A and b_real and float(np.max(ringB)) <= tol.feas_tol:
        target = symmetrize(A + ringB)
        cop = cones.is_cop(target, tol=tol, effort=eff, seed=seed)
        if cop.status is Verdict.MEMBER:
            return PairVerdict(
                Verdict.MEMBER, "copcp",
                {"route": "lift", "cop": cop, "lifted": target},
                detail="lifting: A + ring(B) copositive with -ring(B) "
                       "entrywise nonneg",
            )
        if cop.status is Verdict.NON_MEMBER:
            x = np.asarray(cop.certificate["vector"], dtype=float)
            s = np.sqrt(np.clip(x, 0.0, None))
            val = copcp_form_value(pair, s, s)
            if val < -tol.feas_tol * scale:
                return PairVerdict(
                    Verdict.NON_MEMBER, "copcp",
                    {"v": s.astype(complex), "w": s.astype(complex),
                     "value": val, "filter": "lift"},
                    value=val, detail="lifted copositivity refuted",
                )

    val, v, w = _refute_copcp(pair, eff, seed)
    if val < -tol.feas_tol * scale:
        return PairVerdict(
            Verdict.NON_MEMBER, "copcp",
            {"v": v, "w": w, "value": val}, value=val,
            detail="refutation search found a violating pair of vectors",
        )
    return PairVerdict(
        Verdict.UNKNOWN, "copcp",
        {"filters": report, "search_min": val},
        value=val,
        detail="no membership route fired and no violation found",
    )


def lift_check(A, N, tol=None, effort="default", seed: int = 0) -> PairVerdict:
    """Decide (N, A - ring N) in COPCP via copositivity of A.

    Requires diag(N) = diag(A) and N, N - A entrywise nonnegative; under
    those hypotheses the pair is in COPCP exactly when A is copositive.
    """
    tol = as_tolerance(tol)
    A = symmetrize(check_hermitian(A).real)
    N = symmetrize(check_hermitian(N).real)
    if A.shape != N.shape:
        raise PreconditionError("A and N must have the same shape")
    if float(np.max(np.abs(np.diag(N) - np.diag(A)))) > 1e-10:
        raise PreconditionError("diag(N) must equal diag(A)")
    if not is_entrywise_nonneg(N, tol):
        raise PreconditionError("N must be entrywise nonnegative")
    if not is_entrywise_nonneg(N - A, tol):
        raise PreconditionError("N - A must be entrywise nonnegative")
    pair = pair_form(N, A - off_diag(N))
    cop = cones.is_cop(A, tol=tol, effort=effort, seed=seed)
    if cop.status is Verdict.MEMBER:
        return PairVerdict(Verdict.MEMBER, "copcp",
                           {"route": "lift", "cop": cop},
                           detail="A copositive transfers to the pair")
    if cop.status is Verdict.NON_MEMBER:
        x = np.asarray(cop.certificate["vector"], dtype=float)
        s = np.sqrt(np.clip(x, 0.0, None))
        val = copcp_form_value(pair, s, s)
        return PairVerdict(Verdict.NON_MEMBER, "copcp",
                           {"v": s.astype(complex), "w": s.astype(complex),
                            "value": val, "cop": cop},
                           value=val,
                           detail="copositivity refuted, pair refuted")
    return PairVerdict(Verdict.UNKNOWN, "copcp", {"cop": cop},
                       detail="copositivity undecided")


# ---------------------------------------------------------------------------
# PDEC


def _pick_re(n, i, j):
    C = np.zeros((n, n), dtype=complex)
    C[i, j] = 0.5
    C[j, i] = 0.5
    return C


def _pick_im(n, i, j):
    C = np.zeros((n, n), dtype=complex)
    C[i, j] = 0.5j
    C[j, i] = -0.5j
    return C


def _pick_diag(n, i):
    C = np.zeros((n, n))
    C[i, i] = 1.0
    return C


def is_pdec(pair: MatrixPair, tol=None) -> PairVerdict:
    """Pairwise decomposability: B = B1 + B2 with B1 psd, B2 hermitian,
    nonnegative diagonal, and |B2_ij|^2 <= A_ij A_ji off the diagonal.

    Routes, in order:
      1. A_entrywise: a negative entry of A refutes (NON_MEMBER);
      2. forced_entry: a zero diagonal forces B1 = 0 on its row, so an
         entry of that row above its bound refutes (NON_MEMBER);
      3. psd split: B2 = 0, B1 = B, a member when B is psd;
      4. clip split: B2 takes each off-diagonal entry of B up to its bound
         sqrt(A_ij A_ji), B1 = B - B2, a member when that B1 is psd;
      5. one feasibility SDP after exact presolve of the entries forced by
         zero diagonals or zero entry bounds (MEMBER, or NON_MEMBER with a
         Farkas certificate, or UNKNOWN).
    A split is accepted only within the bounds certificates.check applies
    to the B1/B2 certificate; its certificate names it under "split".
    """
    tol = as_tolerance(tol)
    A, B, n = pair.A, pair.B, pair.n
    scale = pair.scale()
    if n > 24:
        raise cones.SizeLimit("pairwise decomposability capped at n = 24")

    if float(np.min(A)) < -tol.feas_tol * scale:
        i, j = np.unravel_index(int(np.argmin(A)), A.shape)
        return PairVerdict(
            Verdict.NON_MEMBER, "pdec",
            {"reason": "A_entrywise", "entry": (int(i), int(j)),
             "value": float(A[i, j])},
            detail="definition requires A entrywise nonnegative",
        )

    R = _entry_bounds(pair)
    forced = _forced_rows(pair, tol)
    # entries with a forced-zero psd part must satisfy the bound directly
    for i in range(n):
        for j in range(i + 1, n):
            if forced[i] or forced[j]:
                gap = R[i, j] - abs(B[i, j])
                if gap < -tol.feas_tol * scale:
                    return PairVerdict(
                        Verdict.NON_MEMBER, "pdec",
                        {"reason": "forced_entry", "entry": (i, j),
                         "margin": float(gap)},
                        detail="zero diagonal forces B1=0 on this entry, "
                               "and |B_ij| exceeds the bound",
                    )

    M = _modulus(B)
    clip = B * np.minimum(1.0, R / np.where(M > 0, M, 1.0))
    for name, B2 in (("psd", np.zeros_like(B)), ("clip", clip)):
        split = _split_verdict(pair, R, B2, tol, name)
        if split is not None:
            return split
    return _pdec_sdp(pair, tol)


def _entry_bounds(pair: MatrixPair) -> np.ndarray:
    """R_ij = sqrt(A_ij A_ji) off the diagonal, the bound on |B2_ij|."""
    R = np.sqrt(np.clip(pair.A * pair.A.T, 0.0, None))
    np.fill_diagonal(R, 0.0)
    return R


def _forced_rows(pair: MatrixPair, tol: Tolerance) -> np.ndarray:
    """Rows whose zero diagonal forces the psd part to vanish there."""
    return np.real(np.diag(pair.B)) <= tol.feas_tol * pair.scale()


def _margin_terms(B1, B2, R) -> tuple:
    """lambda_min(B1), min diag(B2) and min(R - |ring B2|): the margin of a
    B1/B2 certificate is their minimum."""
    return (min_eig(B1), float(np.min(np.real(np.diag(B2)))),
            float(np.min(R - np.abs(off_diag(B2)))))


def _split_verdict(pair, R, B2, tol: Tolerance, name: str):
    """The MEMBER verdict for B1 = B - B2 when the split passes the checks
    certificates.check applies to a B1/B2 certificate, else None."""
    B = np.asarray(pair.B, dtype=complex)
    B2 = np.asarray(B2, dtype=complex)
    B1 = B - B2
    scale = pair.scale()
    bound = tol.feas_tol * scale
    lam, diag2, room = _margin_terms(B1, B2, R)
    if (lam < -tol.eig_tol * scale or diag2 < -bound or room < -bound
            or float(np.max(np.abs(B1 + B2 - B))) > bound):
        return None
    return PairVerdict(
        Verdict.MEMBER, "pdec",
        {"B1": B1, "B2": B2, "margin": min(lam, diag2, room), "split": name},
        detail=f"explicit decomposition by the {name} split",
    )


def _pdec_sdp(pair: MatrixPair, tol: Tolerance) -> PairVerdict:
    """is_pdec's SDP route: exact presolve, then one feasibility SDP."""
    B, n = pair.B, pair.n
    scale = pair.scale()
    R = _entry_bounds(pair)
    forced = _forced_rows(pair, tol)
    diag = np.real(np.diag(B))
    keep = [i for i in range(n) if not forced[i]]

    if not keep:
        B1 = np.zeros((n, n), dtype=complex)
        return PairVerdict(
            Verdict.MEMBER, "pdec",
            {"B1": B1, "B2": np.asarray(B, dtype=complex).copy()},
            detail="psd part vanishes identically; bounds hold entrywise",
        )

    k = len(keep)
    pos = {v: t for t, v in enumerate(keep)}
    prob = SdpProblem()
    bone = prob.add_hpsd(k)
    slack = prob.add_nn(k)
    for ii in range(k):
        i = keep[ii]
        e = np.zeros(k)
        e[ii] = 1.0
        prob.add_eq(float(diag[i]), (bone, _pick_diag(k, ii)), (slack, e))
    for i in range(n):
        for j in range(i + 1, n):
            if forced[i] or forced[j]:
                continue
            ii, jj = pos[i], pos[j]
            if R[i, j] <= tol.feas_tol * scale:
                # modulus bound is zero: B1 must carry the whole entry
                prob.add_eq(float(B[i, j].real), (bone, _pick_re(k, ii, jj)))
                prob.add_eq(float(B[i, j].imag), (bone, _pick_im(k, ii, jj)))
                continue
            blk = prob.add_hpsd(2)
            prob.add_eq(float(R[i, j]), (blk, _pick_diag(2, 0)))
            prob.add_eq(float(R[i, j]), (blk, _pick_diag(2, 1)))
            prob.add_eq(float(B[i, j].real), (blk, _pick_re(2, 0, 1)),
                        (bone, _pick_re(k, ii, jj)))
            prob.add_eq(float(B[i, j].imag), (blk, _pick_im(2, 0, 1)),
                        (bone, _pick_im(k, ii, jj)))
    prob.set_cost(bone, np.eye(k))

    sol = solve_sdp(prob, tol)
    if sol.status is SdpStatus.OPTIMAL:
        B1 = np.zeros((n, n), dtype=complex)
        Bk = sol.block(bone)
        for i in keep:
            for j in keep:
                B1[i, j] = Bk[pos[i], pos[j]]
        B2 = np.asarray(B, dtype=complex) - B1
        return PairVerdict(
            Verdict.MEMBER, "pdec",
            {"B1": B1, "B2": B2, "margin": min(_margin_terms(B1, B2, R)),
             "solver_stats": sol.stats},
            detail="explicit decomposition found by SDP",
        )
    if sol.status is SdpStatus.PRIMAL_INFEASIBLE:
        return PairVerdict(
            Verdict.NON_MEMBER, "pdec",
            {"reason": "infeasible", "farkas": sol.certificate,
             "solution": sol, "problem": prob},
            detail="decomposition constraints are infeasible "
                   "(Farkas certificate attached)",
        )
    return PairVerdict(Verdict.UNKNOWN, "pdec",
                       {"solver_status": sol.status.value},
                       detail="solver did not resolve the feasibility SDP")


def pdec_sufficient(pair: MatrixPair) -> bool:
    """Entrywise sufficient condition for pairwise decomposability:
    sqrt(A_ii A_jj)/(n-1) + sqrt(A_ij A_ji) >= |B_ij| for all i != j.

    is_pdec's clip split certifies every pair this accepts: its B1 is then
    diagonally dominant after scaling by diag(A)^(-1/2) on both sides."""
    A, B, n = pair.A, pair.B, pair.n
    if n < 2 or float(np.min(A)) < 0:
        return False
    d = np.diag(A)
    lhs = (np.sqrt(np.maximum(d[:, None] * d[None, :], 0.0)) / (n - 1)
           + np.sqrt(np.maximum(A * A.T, 0.0)))
    return not np.any(off_diag(lhs - _modulus(B) < -1e-12))


def spn_lift_check(A, N, tol=None) -> PairVerdict:
    """Decide (N, A - ring N) in PDEC through the psd+nonneg cone.

    With N entrywise nonneg, diag(N) = diag(A), and
    N_ij >= A_ij/2 + (A_ii + A_jj)/4 off the diagonal, the pair is
    pairwise decomposable exactly when A is a sum of a psd and an
    entrywise nonnegative matrix.  Two one-sided shortcuts apply when A is
    psd (any such N works) or A is entrywise nonneg with N - A/2 nonneg.
    """
    tol = as_tolerance(tol)
    A = symmetrize(check_hermitian(A).real)
    N = symmetrize(check_hermitian(N).real)
    if A.shape != N.shape:
        raise PreconditionError("A and N must have the same shape")
    n = A.shape[0]
    if float(np.max(np.abs(np.diag(N) - np.diag(A)))) > 1e-10:
        raise PreconditionError("diag(N) must equal diag(A)")
    if not is_entrywise_nonneg(N, tol):
        raise PreconditionError("N must be entrywise nonnegative")
    ringN = off_diag(N)
    pairNB = pair_form(N, A - ringN)

    d = np.diag(A)
    low = N < 0.5 * A + 0.25 * (d[:, None] + d[None, :]) - tol.feas_tol
    if not np.any(off_diag(low)):
        spn = cones.is_spn(A, tol=tol)
        if spn.status is Verdict.MEMBER:
            P = spn.certificate["P"]
            E = spn.certificate["E"]
            B1 = P.astype(complex)
            B2 = (A - ringN).astype(complex) - B1
            return PairVerdict(Verdict.MEMBER, "pdec",
                               {"route": "spn-lift", "spn": spn,
                                "B1": B1, "B2": B2, "E": E},
                               detail="psd+nonneg split of A transfers")
        if spn.status is Verdict.NON_MEMBER:
            return PairVerdict(Verdict.NON_MEMBER, "pdec",
                               {"route": "spn-lift", "spn": spn},
                               detail="A outside psd+nonneg refutes the pair")
        return PairVerdict(Verdict.UNKNOWN, "pdec", {"spn": spn},
                           detail="inner membership undecided")
    if is_psd(A, tol):
        B1 = A.astype(complex)
        B2 = -ringN.astype(complex)
        return PairVerdict(Verdict.MEMBER, "pdec",
                           {"route": "psd-shortcut", "B1": B1, "B2": B2},
                           detail="A psd: take the psd part to be A itself")
    if is_entrywise_nonneg(A, tol) and is_entrywise_nonneg(N - A / 2, tol):
        B1 = np.zeros((n, n), dtype=complex)
        B2 = (A - ringN).astype(complex)
        return PairVerdict(Verdict.MEMBER, "pdec",
                           {"route": "ewp-shortcut", "B1": B1, "B2": B2},
                           detail="A entrywise nonneg with N >= A/2")
    raise PreconditionError(
        "no applicable hypothesis: need N_ij >= A_ij/2 + (A_ii+A_jj)/4, "
        "or A psd, or A entrywise nonneg with N - A/2 entrywise nonneg"
    )


# ---------------------------------------------------------------------------
# closed-form cones


def is_pdnn(pair: MatrixPair, tol=None) -> bool:
    """A entrywise nonneg, B psd, and A_ij A_ji >= |B_ij|^2 off-diagonal."""
    tol = as_tolerance(tol)
    A, B = pair.A, pair.B
    scale = pair.scale()
    if float(np.min(A)) < -tol.feas_tol * scale:
        return False
    if not is_psd(B, tol):
        return False
    gap = A * A.T - _modulus(B) ** 2
    return not np.any(off_diag(gap < -tol.feas_tol * scale * scale))


def is_cldui_plus(pair: MatrixPair, tol=None) -> bool:
    """A entrywise nonnegative and B positive semidefinite."""
    tol = as_tolerance(tol)
    scale = pair.scale()
    if float(np.min(pair.A)) < -tol.feas_tol * scale:
        return False
    return is_psd(pair.B, tol)


# ---------------------------------------------------------------------------
# PCP: refutation filters and the one-atom split


def _atom(v, w):
    v = np.asarray(v, dtype=complex)
    w = np.asarray(w, dtype=complex)
    Aat = np.outer(np.abs(v) ** 2, np.abs(w) ** 2)
    z = v * w
    Bat = np.outer(z, z.conj())
    return Aat, Bat


def _one_atom_split(A, B, n, bound):
    """Exact test of (A, B) = one atom (v, w) plus unit atoms, within bound.

    A unit atom (e_i, e_j) adds any nonnegative rest to A and nothing to
    ring B, so the pair is in this class exactly when ring B = ring(zz*)
    for some z = v o w with |v_i|^2 |w_j|^2 <= A_ij.  On the support of
    ring B, log|z| solves log|z_i| + log|z_j| = log|B_ij| by least squares
    (two rows split their product in the ratio sqrt(A_ii/A_jj)) and the
    phases come from one row.  With |v_i|^2 = |z_i| s_i and
    |w_i|^2 = |z_i|/s_i the bounds on A become the difference constraints
    log s_i - log s_j <= log A_ij - log|z_i||z_j|, solved by shortest
    paths.  Returns the residual max(ring-B mismatch, -min(A - A_atom))
    and the atoms (v, w, weight) that reach it.
    """
    Bo = off_diag(np.asarray(B, dtype=complex))
    M = _modulus(Bo)
    S = np.flatnonzero(M.max(axis=1) > bound)  # never one row: M = M^T
    k, tiny = len(S), np.finfo(float).tiny
    v = np.zeros(n)
    w = np.zeros(n, dtype=complex)
    if k:
        iu, ju = np.triu_indices(k, k=1)
        m = M[S[iu], S[ju]]
        iu, ju, m = iu[m > 0], ju[m > 0], m[m > 0]
        E = (np.arange(k) == iu[:, None]) * 1.0 + (np.arange(k) == ju[:, None])
        # the least-squares solution nearest |z_i|^2 = A_ii; only two rows
        # leave it a choice, which then splits their product as above
        h = 0.5 * np.log(np.maximum(np.diag(A)[S], tiny))
        lz = h + np.linalg.pinv(E) @ (np.log(m) - E @ h)
        # half the bound as slack keeps rounding off tight cycles
        T = np.maximum(A[np.ix_(S, S)], 0.0) + 0.5 * bound
        W = np.log(np.maximum(T, tiny)) - lz[:, None] - lz[None, :]
        np.fill_diagonal(W, 0.0)
        span = float(np.max(np.abs(W)))
        for t in range(k):  # Floyd-Warshall
            W = np.minimum(W, W[:, t, None] + W[None, t, :])
        # a feasible system has a solution within span; an infeasible one
        # is clipped there so that the residual below stays finite
        x = W.min(axis=1)
        x = np.maximum(x - x.max(), -span)
        r = S[np.argmax(M[S].max(axis=1))]
        v[S] = np.exp(0.5 * (lz + x))
        w[S] = np.exp(0.5 * (lz - x) - 1j * np.angle(Bo[r, S]))
    Aat, Bat = _atom(v, w)
    rest = A - Aat
    resid = max(float(np.max(_modulus(off_diag(Bat) - Bo))),
                -float(np.min(rest)))
    eye = np.eye(n)
    atoms = [(v, w, 1.0)] if k else []
    atoms += [(eye[i], eye[j], float(rest[i, j]))
              for i, j in zip(*np.nonzero(rest > 0))]
    return resid, atoms


def pcp_checks(pair: MatrixPair, tol=None, effort="default",
               seed: int = 0) -> PairVerdict:
    """Pairwise complete positivity test, exact for one atom plus unit atoms.

    NON_MEMBER when a necessary condition fails: the pdnn filter, the
    Schur-pair rule for diagonal A, a negative pairing against a known
    pairwise copositive witness, or the equal-pair reduction to the
    completely positive cone (the only route that uses effort and seed).
    MEMBER through that reduction, or when the pair is one atom plus unit
    atoms (e_i, e_j), a class `_one_atom_split` decides exactly; it holds
    every 2 x 2 pdnn pair.  Anything else, for instance a sum of two
    general atoms, is UNKNOWN.
    """
    tol = as_tolerance(tol)
    eff = Effort.of(effort)
    A, B, n = pair.A, pair.B, pair.n
    scale = pair.scale()

    if not is_pdnn(pair, tol=tol):
        return PairVerdict(Verdict.NON_MEMBER, "pcp",
                           {"reason": "pdnn"},
                           detail="fails a necessary entrywise/psd filter")
    ringA = off_diag(A)
    ringB = pair.ring_b()
    if float(np.max(np.abs(ringA))) <= 1e-12 and float(
        np.max(np.abs(ringB))
    ) > tol.feas_tol * scale:
        return PairVerdict(
            Verdict.NON_MEMBER, "pcp",
            {"reason": "schur-pair"},
            detail="diagonal A forces B diagonal for membership",
        )
    # pairing against the off-diagonal reflection witness
    Nw = ((ringA - np.real(ringB)) < 0).astype(float)
    Nw = np.maximum(Nw, Nw.T)
    np.fill_diagonal(Nw, 0.0)
    if Nw.any():
        val = inner(ringA, Nw) - inner(np.real(ringB), Nw)
        if val < -tol.feas_tol * scale:
            return PairVerdict(
                Verdict.NON_MEMBER, "pcp",
                {"reason": "witness", "witness": (Nw, -Nw),
                 "pairing": float(val)},
                detail="negative pairing with a pairwise copositive witness",
            )
    sym_equal = (np.max(np.abs(A - A.T)) <= 1e-12
                 and np.max(np.abs(np.asarray(B) - A)) <= 1e-12)
    if sym_equal:
        cp = cones.is_cp(A, tol=tol, effort=eff, seed=seed)
        if cp.status is Verdict.MEMBER:
            return PairVerdict(Verdict.MEMBER, "pcp",
                               {"route": "cp-equal", "cp": cp},
                               detail="equal pair reduces to the completely "
                                      "positive cone")
        if cp.status is Verdict.NON_MEMBER:
            return PairVerdict(Verdict.NON_MEMBER, "pcp",
                               {"route": "cp-equal", "cp": cp},
                               detail="equal pair outside the completely "
                                      "positive cone")

    resid, atoms = _one_atom_split(A, B, n, tol.feas_tol * scale)
    if resid <= tol.feas_tol * scale:
        return PairVerdict(
            Verdict.MEMBER, "pcp",
            {"route": "atoms", "atoms": atoms, "residual": resid},
            detail="one atom plus unit atoms",
        )
    return PairVerdict(Verdict.UNKNOWN, "pcp", {"split_residual": resid},
                       detail="not one atom plus unit atoms; membership open")


# ---------------------------------------------------------------------------
# certificate re-verification


def verify_pair(pair: MatrixPair, verdict: PairVerdict, tol=None) -> bool:
    """Whether the verdict's certificate re-checks against the pair; the
    named checks are in certificates.check(verdict, pair, tol)."""
    from .certificates import check  # certificates imports this module

    return check(verdict, pair, tol)["ok"]
