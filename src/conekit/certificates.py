"""Independent re-checks of verdict certificates: the one checker behind
`conekit --verify` and pairwise.verify_pair.  It re-runs no optimization."""

from __future__ import annotations

import numpy as np

from . import cones, graphs, pairwise
from .cones import Verdict
from .graphs import SigmaResult, ThresholdReport
from .linalg import Tolerance, as_tolerance, inner, min_eig, off_diag, symmetrize
from .optim import verify_sdp
from .pairwise import PairVerdict

__all__ = ["check", "record"]


def check(verdict, target, tol=None) -> dict:
    """Named checks {"ok": all passed, "<check>": bool, ...} of a ConeVerdict
    against its matrix, a PairVerdict against its MatrixPair (nested cone
    verdicts against the matrix the pair oracle derived), a SigmaResult
    against its Graph, or a ThresholdReport against its Graph (the sigma
    checks plus the threshold order)."""
    tol = as_tolerance(tol)
    if isinstance(verdict, SigmaResult):
        return _verify_sigma_certificate(target, verdict, tol)
    if isinstance(verdict, ThresholdReport):
        rep = _verify_sigma_certificate(target, verdict.sigma_result, tol)
        record(rep, "threshold_order",
               verdict.t_cp <= verdict.t_ccp + 1e-9
               and verdict.t_ccp <= verdict.t_dec + 1e-9
               and verdict.t_dec <= verdict.t_pos + 1e-9)
        return rep
    if isinstance(verdict, PairVerdict):
        return _verify_pair_verdict(verdict, target, tol)
    return _verify_cone_verdict(verdict, target, tol)


def record(report: dict, name: str, ok: bool) -> None:
    """Add the named check to `report` and fold it into report["ok"]."""
    report[name] = bool(ok)
    report["ok"] = report.get("ok", True) and bool(ok)


def _verify_cone_verdict(v, M, tol: Tolerance) -> dict:
    rep = {"ok": True}
    cert = v.certificate or {}
    M = np.real(np.asarray(M))
    n = M.shape[0]
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    if v.status is Verdict.UNKNOWN:
        return rep
    member = v.status is Verdict.MEMBER
    if v.cone == "COP":
        if member:
            gram = cert.get("gram")
            record(rep, "gram", gram is not None
                   and cones.verify_gram(n, v.level, M, gram, tol))
        else:
            x = np.asarray(cert["vector"])
            record(rep, "vector_nonneg", np.min(x) >= -tol.feas_tol)
            record(rep, "form_negative", float(x @ M @ x) < 0)
    elif v.cone == "SPN":
        if member:
            P, E = np.asarray(cert["P"]), np.asarray(cert["E"])
            res = np.max(np.abs(P + E - cert["shift"] * np.eye(n) - M))
            record(rep, "split_residual", res <= 1e3 * tol.feas_tol * scale)
            record(rep, "P_psd", min_eig(P) >= -1e3 * tol.eig_tol * scale)
            record(rep, "E_nonneg", float(np.min(E)) >= -tol.feas_tol)
        else:
            X = np.asarray(cert["X"])
            record(rep, "X_nonneg", float(np.min(X)) >= -tol.feas_tol)
            record(rep, "X_psd", min_eig(X) >= -1e3 * tol.eig_tol)
            record(rep, "pairing_negative", inner(X, M) < 0)
    elif v.cone.startswith("K^(") and not v.cone.endswith("*"):
        if member:
            record(rep, "gram", cones.verify_gram(n, v.level, M, cert, tol))
        else:
            # recomputed from z; a stated figure that differs fails
            sd = cones._sos_data(n, v.level)
            z = np.asarray(cert["moment"], dtype=float)
            pairing, norm = z @ sd.coeffs(M), z @ sd.coeffs(np.eye(n))
            record(rep, "pairing_negative", pairing < 0
                   and np.isclose(cert["pairing"], pairing, rtol=1e-9))
            record(rep, "normalization_positive", norm > 0
                   and np.isclose(cert["normalization"], norm, rtol=1e-9))
            _check_moments(rep, sd, z, cert["moment_blocks"], scale, tol)
    elif v.cone.endswith("*") and member:
        # P = y0 (I + J) + L*(z), recomputed from y0 and z
        sd = cones._sos_data(n, v.level)
        z = np.asarray(cert["moment"], dtype=float)
        record(rep, "y0_nonneg", cert["y0"] >= -tol.feas_tol * scale)
        rebuilt = cert["y0"] * (np.eye(n) + 1.0) + sd.adjoint(z)
        record(rep, "reconstruction",
               float(np.max(np.abs(M - rebuilt))) <= 1e3 * tol.feas_tol * scale)
        _check_moments(rep, sd, z, cert["moment_blocks"], scale, tol)
    elif v.cone == "CP" and member:
        if "factor" in cert:
            B = np.asarray(cert["factor"])
            record(rep, "factor_nonneg", float(np.min(B)) >= -tol.feas_tol)
            res = np.max(np.abs(B @ B.T - M))
            record(rep, "factor_residual", res <= 1e3 * tol.feas_tol * scale)
        else:
            prof = cones.classify_elementary(M, tol)
            record(rep, "low_dimension_dnn", n <= 4 and prof.in_dnn)
    elif v.cone.endswith("*") or (
        v.cone == "CP" and cert.get("kind", "").startswith("dual-hierarchy")
    ):
        # a level-r member W with <M, W> < 0 separates M from K^(r)* ⊇ CP
        W = np.asarray(cert["M"])
        record(rep, "separator_gram",
               cones.verify_gram(n, v.level, W, cert["gram"], tol))
        record(rep, "pairing_negative", inner(M, W) < 0)
    elif v.cone == "CP":
        W = np.asarray(cert["witness"], dtype=float)
        record(rep, "witness_copositive", _cp_witness_copositive(cert, W, tol))
        record(rep, "pairing_negative", inner(W, M) < 0)
        if cert["kind"] == "cycle-scaled":
            record(rep, "diag_nonneg", float(np.min(cert["diag"])) >= 0)
    elif v.cone == "DNN":
        prof = cones.classify_elementary(M, tol)
        record(rep, "recheck", member == prof.in_dnn)
    return rep


def _check_moments(rep: dict, sd, z, mb: dict, scale: float,
                   tol: Tolerance) -> None:
    """The stated moment blocks and singles are z read through the index
    tables (z[rows] per Gram block, z[singles]), psd and nonnegative."""
    stated = [np.asarray(b, dtype=float) for b in mb["blocks"]]
    singles = np.asarray(mb["singles"], dtype=float)
    pairs = zip(stated + [singles], [z[rows] for rows in sd.rows] + [z[sd.singles]])
    record(rep, "moment_blocks_match", len(stated) == len(sd.rows) and all(
        s.shape == w.shape
        and float(np.max(np.abs(s - w), initial=0.0)) <= 1e3 * tol.eig_tol * scale
        for s, w in pairs))
    worst = min((min_eig(b) for b in stated), default=0.0)
    record(rep, "moment_blocks_psd", worst >= -1e3 * tol.eig_tol * scale)
    if singles.size:
        record(rep, "moment_singles_nonneg",
               float(np.min(singles)) >= -tol.feas_tol * scale)


def _cp_witness_copositive(cert: dict, W: np.ndarray, tol: Tolerance) -> bool:
    """Whether W is psd, nonnegative, or D (P H P^T) D on a 5-subset and 0
    elsewhere (H the 5-cycle matrix), as the certificate's kind says."""
    kind = cert["kind"]
    if kind == "psd-violation":
        return min_eig(W) >= -tol.eig_tol
    if kind == "sign-violation":
        return float(np.min(W)) >= -tol.feas_tol
    S = [int(s) for s in cert.get("support", ())]
    if kind != "cycle-scaled" or len(S) != 5 or S != sorted(set(S)) or S[0] < 0:
        return False
    d = np.asarray(cert["diag"], dtype=float)
    bound = tol.feas_tol * max(1.0, float(np.max(np.abs(W))))
    expect = np.zeros_like(W)
    for Hp in cones._horn_relabelings():
        expect[np.ix_(S, S)] = d[:, None] * Hp * d
        if float(np.max(np.abs(W - expect))) <= bound:
            return True
    return False


def _verify_pair_verdict(v, pair, tol: Tolerance) -> dict:
    rep = {"ok": True}
    cert = v.certificate or {}
    if v.status is Verdict.UNKNOWN:
        return rep
    member = v.status is Verdict.MEMBER
    if v.cone in ("PDNN", "CLDUI+"):
        test = pairwise.is_pdnn if v.cone == "PDNN" else pairwise.is_cldui_plus
        record(rep, "recheck", test(pair, tol) == member)
        return rep
    lifted = symmetrize(pair.A + np.real(pair.ring_b()))
    for key, target in (("cop", lifted), ("spn", lifted), ("cp", pair.A)):
        if key in cert:
            sub = cert[key]
            record(rep, f"{key}_verdict",
                   sub.cone == key.upper() and sub.status is v.status)
            for name, ok in _verify_cone_verdict(sub, target, tol).items():
                record(rep, f"{key}.{name}", ok)
    route, reason, scale = cert.get("route"), cert.get("reason"), pair.scale()
    bound = tol.feas_tol * scale
    # the nested verdict that alone carries a route
    nested = {"lift": "cop", "spn-lift": "spn", "cp-equal": "cp"}.get(route)
    if not member and "v" in cert and "w" in cert:
        val = pairwise.copcp_form_value(pair, cert["v"], cert["w"])
        record(rep, "form_negative", val < 0)
    elif not member and reason == "infeasible" and "problem" in cert:
        farkas = verify_sdp(cert["problem"], cert["solution"])
        record(rep, "farkas", farkas.get("ok", False))
    elif not member and reason == "A_entrywise":
        record(rep, "A_negative_entry", float(np.min(pair.A)) < 0)
    elif not member and reason == "pdnn":
        record(rep, "pdnn_fails", not pairwise.is_pdnn(pair, tol=tol))
    elif not member and reason == "schur-pair":
        record(rep, "schur_pair",
               float(np.max(np.abs(off_diag(pair.A)))) <= 1e-10
               and float(np.max(np.abs(pair.ring_b()))) > 0)
    elif not member and reason == "forced_entry":
        i, j = cert["entry"]
        r = np.sqrt(max(pair.A[i, j] * pair.A[j, i], 0.0))
        record(rep, "forced_entry", abs(pair.B[i, j]) > r)
    elif not member and reason == "witness":
        # (N, -N) with N >= 0 is pairwise copositive
        WA, WB = (np.asarray(x) for x in cert["witness"])
        record(rep, "witness_copcp", np.min(WA) >= 0 and np.array_equal(WB, -WA))
        witness = pairwise.pair_form(WA, WB)
        record(rep, "pairing_negative", pairwise.pair_inner(witness, pair) < 0)
    elif member and route == "cldui+":
        record(rep, "cldui_plus", pairwise.is_cldui_plus(pair, tol=tol))
    elif member and "B1" in cert and "B2" in cert:
        B1, B2 = np.asarray(cert["B1"]), np.asarray(cert["B2"])
        R = np.sqrt(np.clip(pair.A * pair.A.T, 0.0, None))
        np.fill_diagonal(R, 0.0)
        record(rep, "split_residual", np.max(np.abs(B1 + B2 - pair.B)) <= bound)
        record(rep, "B1_psd", min_eig(B1) >= -tol.eig_tol * scale)
        record(rep, "B2_diag_nonneg", np.min(np.real(np.diag(B2))) >= -bound)
        record(rep, "B2_bounded", np.min(R - np.abs(off_diag(B2))) >= -bound)
        record(rep, "A_nonneg", float(np.min(pair.A)) >= -bound)
    elif member and route == "markov-ascent":
        from .quantum import _markov_g  # quantum imports this module

        A = pair.A
        record(rep, "ascent_value",
               _markov_g(A, np.asarray(cert["t"], dtype=float)) <= 1.0 + 1e-9)
        if cert.get("cldui_plus"):
            record(rep, "diagonal_criterion",
                   float(np.sum(1.0 / (1.0 + np.diag(A)))) <= 1.0 + 1e-9)
    elif member and route == "atoms":
        atoms = [(lam, *pairwise._atom(x, y)) for x, y, lam in cert["atoms"]]
        # PCP is the cone the atoms generate: only nonnegative weights
        record(rep, "atoms_nonneg", all(lam >= 0 for lam, _, _ in atoms))
        SA = sum(lam * Aat for lam, Aat, _ in atoms)
        SB = sum(lam * Bat for lam, _, Bat in atoms)
        record(rep, "atoms_A", np.max(np.abs(SA - pair.A)) <= 10 * bound)
        record(rep, "atoms_B",
               np.max(np.abs(off_diag(SB) - pair.ring_b())) <= 10 * bound)
    elif nested not in cert:
        record(rep, "certificate_known", False)
    return rep


def _verify_sigma_certificate(G, res, tol: Tolerance) -> dict:
    rep = {"ok": True}
    cert = res.certificate
    n = G.n
    A = np.asarray(G.adjacency)
    P, E = np.asarray(cert["P"]), np.asarray(cert["E"])
    resid = float(np.max(np.abs(np.ones((n, n)) - res.value * A - P - E)))
    record(rep, "split_residual", resid <= 1e3 * tol.feas_tol * n)
    record(rep, "P_psd", min_eig(P) >= -1e3 * tol.eig_tol * n)
    record(rep, "E_nonneg", float(np.min(E)) >= -1e2 * tol.feas_tol)
    # the split bounds sigma from below only loosely (any smaller value also
    # splits), so a dual X with <J, X> = value must pin the value itself; a
    # certificate without one fails every X check
    X = cert.get("dual_X")
    record(rep, "dual_X_present", X is not None)
    record(rep, "X_nonneg", X is not None
           and float(np.min(X)) >= -1e2 * tol.feas_tol)
    record(rep, "X_psd", X is not None and min_eig(X) >= -1e3 * tol.eig_tol)
    record(rep, "X_normalized", X is not None
           and abs(inner(A, X) - 1.0) <= 1e3 * tol.feas_tol)
    record(rep, "X_value", X is not None and abs(float(np.sum(X)) - res.value)
           <= 1e2 * tol.feas_tol * (1.0 + abs(res.value)))
    if "coloring" in cert and "clique" in cert:
        # exact combinatorial re-check: a k-clique and a proper colouring
        # with at most k colours pin sigma at k/(k-1)
        col, K = list(cert["coloring"]), list(cert["clique"])
        k = len(K)
        record(rep, "coloring_proper",
               len(col) == n and all(col[u] != col[v] for u, v in G.edges))
        record(rep, "coloring_size", len(set(col)) <= k)
        record(rep, "clique_complete",
               len(set(K)) == k
               and all((min(u, v), max(u, v)) in G.edges
                       for i, u in enumerate(K) for v in K[i + 1:]))
        record(rep, "coloring_value",
               k >= 2 and abs(res.value - k / (k - 1)) <= 1e-12)
    if "core" in cert:
        record(rep, "core_steps", _core_steps_valid(G, cert["core"]))
    return rep


def _core_steps_valid(G, core: dict) -> bool:
    """Replay the hub and fold steps of a core-reduction certificate on G,
    each against the vertices still present, and compare what is left with
    ``vertices``."""
    adj = G.adjacency_bits
    alive = (1 << G.n) - 1
    for kind, *ends in core["steps"]:
        ends = [int(x) for x in ends]
        if not ends or not all(0 <= x < G.n and alive >> x & 1 for x in ends):
            return False
        if not graphs._core_step_applies(adj, alive, (kind, *ends)):
            return False
        alive &= ~(1 << ends[0])
    left = sorted(int(v) for v in core["vertices"])
    return left == [v for v in range(G.n) if alive >> v & 1]
