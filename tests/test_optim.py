import time

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from conekit import certificates, cones, optim
from conekit.linalg import Tolerance
from conekit.optim import (
    SdpProblem,
    SdpStatus,
    solve_lp,
    solve_sdp,
    verify_sdp,
)


def sym_basis(n, i, j):
    E = np.zeros((n, n))
    if i == j:
        E[i, i] = 1.0
    else:
        E[i, j] = E[j, i] = 0.5
    return E


def min_eig_problem(M):
    """max t s.t. M - t I psd, posed as min -t with slack X = M - t I."""
    n = M.shape[0]
    p = SdpProblem()
    X = p.add_psd(n)
    t = p.add_free(1)
    for i in range(n):
        for j in range(i, n):
            p.add_eq(M[i, j], (X, sym_basis(n, i, j)), (t, 1.0 if i == j else 0.0))
    p.set_cost(t, -1.0)
    return p, t


def test_min_eig_random_batch():
    rng = np.random.default_rng(11)
    for n in [2, 3, 5, 8, 12]:
        for _ in range(4):
            M = rng.standard_normal((n, n))
            M = (M + M.T) / 2
            p, _ = min_eig_problem(M)
            sol = solve_sdp(p)
            assert sol.status is SdpStatus.OPTIMAL
            lam = float(np.linalg.eigvalsh(M)[0])
            assert abs(-sol.primal_obj - lam) < 1e-7
            assert verify_sdp(p, sol)["ok"]


def test_min_eig_hermitian():
    rng = np.random.default_rng(5)
    n = 6
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (H + H.conj().T) / 2
    p = SdpProblem()
    X = p.add_hpsd(n)
    t = p.add_free(1)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                E = np.zeros((n, n), complex)
                E[i, i] = 1.0
                p.add_eq(H[i, i].real, (X, E), (t, 1.0))
            else:
                E = np.zeros((n, n), complex)
                E[i, j] = E[j, i] = 0.5
                p.add_eq(H[i, j].real, (X, E))
                E = np.zeros((n, n), complex)
                E[i, j] = -0.5j
                E[j, i] = 0.5j
                p.add_eq(H[i, j].imag, (X, E))
    p.set_cost(t, -1.0)
    sol = solve_sdp(p)
    assert sol.status is SdpStatus.OPTIMAL
    lam = float(np.linalg.eigvalsh(H)[0])
    assert abs(-sol.primal_obj - lam) < 1e-7


def test_fantope_sum_of_smallest():
    # min <M, X> over 0 <= X <= I, tr X = k  equals the sum of the k smallest
    # eigenvalues of M
    rng = np.random.default_rng(3)
    n, k = 6, 2
    M = rng.standard_normal((n, n))
    M = (M + M.T) / 2
    p = SdpProblem()
    X = p.add_psd(n)
    Y = p.add_psd(n)
    for i in range(n):
        for j in range(i, n):
            p.add_eq(
                1.0 if i == j else 0.0,
                (X, sym_basis(n, i, j)),
                (Y, sym_basis(n, i, j)),
            )
    p.add_eq(float(k), (X, np.eye(n)))
    p.set_cost(X, M)
    sol = solve_sdp(p)
    assert sol.status is SdpStatus.OPTIMAL
    ref = float(np.sum(np.linalg.eigvalsh(M)[:k]))
    assert abs(sol.primal_obj - ref) < 1e-7
    assert abs(sol.dual_obj - ref) < 1e-7


def test_mixed_nn_psd_shift():
    # distance-to-decomposable: min t s.t. M + tI = P + E, P psd, E >= 0
    M = np.array([[1.0, -2.0, 0.5], [-2.0, 1.0, 0.3], [0.5, 0.3, -0.5]])
    n = 3
    p = SdpProblem()
    P = p.add_psd(n)
    E = p.add_nn(n * (n + 1) // 2)
    t = p.add_free(1)
    idx = 0
    for i in range(n):
        for j in range(i, n):
            ev = np.zeros(n * (n + 1) // 2)
            ev[idx] = 1.0
            p.add_eq(
                M[i, j],
                (P, sym_basis(n, i, j)),
                (E, ev),
                (t, -1.0 if i == j else 0.0),
            )
            idx += 1
    p.set_cost(t, 1.0)
    sol = solve_sdp(p)
    assert sol.status is SdpStatus.OPTIMAL
    assert sol.residuals["primal"] < 1e-7
    # the slack split must reconstruct M + t I
    tstar = sol.primal_obj
    Pm = sol.block(P)
    Ev = sol.block(E)
    S = np.zeros((n, n))
    idx = 0
    for i in range(n):
        for j in range(i, n):
            S[i, j] = S[j, i] = Ev[idx]
            idx += 1
    recon = Pm + S
    assert np.max(np.abs(recon - (M + tstar * np.eye(n)))) < 1e-6
    assert np.linalg.eigvalsh(Pm)[0] > -1e-7
    assert Ev.min() > -1e-9


def test_primal_infeasible_with_certificate():
    p = SdpProblem()
    X = p.add_psd(3)
    p.add_eq(1.0, (X, np.eye(3)))
    p.add_eq(-2.0, (X, np.diag([1.0, 1.0, 2.0])))
    sol = solve_sdp(p)
    assert sol.status is SdpStatus.PRIMAL_INFEASIBLE
    rep = verify_sdp(p, sol)
    assert rep["ok"]
    assert rep["b_dot_y"] > 0
    assert rep["ray_residual"] <= 1e-7 * rep["b_dot_y"]


def test_dual_infeasible_with_certificate():
    p = SdpProblem()
    X = p.add_psd(2)
    E = np.zeros((2, 2))
    E[0, 1] = E[1, 0] = 0.5
    p.add_eq(1.0, (X, E))
    p.set_cost(X, np.diag([-1.0, 0.0]))
    sol = solve_sdp(p)
    assert sol.status is SdpStatus.DUAL_INFEASIBLE
    rep = verify_sdp(p, sol)
    assert rep["ok"]
    assert rep["c_dot_x"] < 0


def test_deterministic():
    rng = np.random.default_rng(21)
    M = rng.standard_normal((5, 5))
    M = (M + M.T) / 2
    p1, _ = min_eig_problem(M)
    p2, _ = min_eig_problem(M)
    s1 = solve_sdp(p1)
    s2 = solve_sdp(p2)
    assert s1.primal_obj == s2.primal_obj
    assert np.array_equal(s1.blocks[0], s2.blocks[0])
    assert s1.iterations == s2.iterations


def test_dimension_guard(monkeypatch):
    p = SdpProblem()
    p.add_psd(150)  # svec length 11325 > 10^4
    p.add_eq(1.0, (p.add_nn(1), [1.0]))

    def no_compile(self):
        raise AssertionError("compile called before the size check")

    # the guard fires before the dense (m, N) data is allocated
    monkeypatch.setattr(SdpProblem, "compile", no_compile)
    with pytest.raises(ValueError):
        solve_sdp(p)


def test_tolerance_argument():
    M = np.diag([1.0, -3.0])
    p, _ = min_eig_problem(M)
    sol = solve_sdp(p, tol=Tolerance())
    assert sol.status is SdpStatus.OPTIMAL
    assert abs(-sol.primal_obj + 3.0) < 1e-7


def _cholesky_step(M, dM):
    """Reference step length: largest alpha with M + alpha dM psd, from the
    Cholesky factor of M."""
    L = np.linalg.cholesky(M)
    Y = solve_triangular(L, dM, lower=True)
    Y = solve_triangular(L, Y.conj().T, lower=True)
    lam = float(np.linalg.eigvalsh(0.5 * (Y + Y.conj().T))[0])
    return np.inf if lam >= 0 else -1.0 / lam


def _random_herm(rng, d, kind):
    M = rng.standard_normal((d, d))
    if kind == "hpsd":
        M = M + 1j * rng.standard_normal((d, d))
    return 0.5 * (M + M.conj().T)


def _random_pd(rng, d, kind):
    B = _random_herm(rng, d, kind)
    return B @ B.conj().T + 0.1 * np.eye(d)


@pytest.mark.parametrize("kind", ["psd", "hpsd"])
def test_step_length_matches_cholesky_formula(kind):
    rng = np.random.default_rng(17)
    for d in (1, 3, 6, 10):
        for _ in range(5):
            X = _random_pd(rng, d, kind)
            B = _random_herm(rng, d, kind)
            S = B @ B.conj().T + 0.1 * np.eye(d)
            # a group of one block: stacks of shape (1, d, d)
            sc = optim._Scaling(kind, X[None], S[None])
            dX = _random_herm(rng, d, kind)
            dS = _random_herm(rng, d, kind)
            ref = min(_cholesky_step(X, dX), _cholesky_step(S, dS))
            assert sc.max_step(dX[None], dS[None]) == pytest.approx(ref, rel=1e-10)
            # each side alone: the other direction is psd, so never binds
            P = (B @ B.conj().T)[None]
            assert sc.max_step(dX[None], P) == pytest.approx(
                _cholesky_step(X, dX), rel=1e-10
            )
            assert sc.max_step(P, dS[None]) == pytest.approx(
                _cholesky_step(S, dS), rel=1e-10
            )
            assert sc.max_step(P, P + np.eye(d)) == np.inf
            np.testing.assert_allclose(sc.xinv()[0], np.linalg.inv(X),
                                       rtol=1e-8, atol=1e-10)


@pytest.mark.parametrize("kind", ["psd", "hpsd"])
def test_step_length_stacked_group(kind):
    # g = 4 blocks in one stack; the binding block is the third
    rng = np.random.default_rng(29)
    for d in (2, 5):
        X = np.stack([_random_pd(rng, d, kind) for _ in range(4)])
        S = np.stack([_random_pd(rng, d, kind) for _ in range(4)])
        dX = np.stack([_random_herm(rng, d, kind) for _ in range(4)])
        dS = np.stack([_random_herm(rng, d, kind) for _ in range(4)])
        dX[[0, 1, 3]] *= 0.01
        dS[[0, 1, 3]] *= 0.01
        steps = [min(_cholesky_step(X[q], dX[q]), _cholesky_step(S[q], dS[q]))
                 for q in range(4)]
        assert int(np.argmin(steps)) == 2
        sc = optim._Scaling(kind, X, S)
        assert sc.max_step(dX, dS) == pytest.approx(min(steps), rel=1e-10)
        for q in range(4):
            np.testing.assert_allclose(sc.xinv()[q], np.linalg.inv(X[q]),
                                       rtol=1e-8, atol=1e-10)


def _two_call_max_step(sc, dX, dS):
    """_Scaling.max_step with one eigvalsh call per direction, as it was
    before both directions went into one call; kept as the reference."""
    lam = np.inf
    for Q, Qh, dM in ((sc._QX, sc._QXh, dX), (sc._QS, sc._QSh, dS)):
        Y = Qh @ dM @ Q
        Y = 0.5 * (Y + Y.conj().swapaxes(-1, -2))
        lam = min(lam, float(np.min(np.linalg.eigvalsh(Y)[..., 0])))
    return np.inf if lam >= 0 else -1.0 / lam


@pytest.mark.parametrize("kind", ["psd", "hpsd"])
def test_step_length_one_eigvalsh_matches_two_calls(kind):
    # bit for bit: LAPACK still factors each matrix of the stack on its own
    rng = np.random.default_rng(31)
    for g, d in ((1, 4), (3, 1), (3, 6), (7, 10)):
        for _ in range(3):
            X = np.stack([_random_pd(rng, d, kind) for _ in range(g)])
            S = np.stack([_random_pd(rng, d, kind) for _ in range(g)])
            dX = np.stack([_random_herm(rng, d, kind) for _ in range(g)])
            dS = np.stack([_random_herm(rng, d, kind) for _ in range(g)])
            sc = optim._Scaling(kind, X, S)
            # both sides, either side binding alone, and no side binding
            for pair in ((dX, dS), (dX, S), (X, dS), (X, S)):
                assert sc.max_step(*pair) == _two_call_max_step(sc, *pair)


def test_step_length_nn_ratio_test():
    x = np.array([1.0, 2.0, 0.5])
    s = np.array([0.3, 1.0, 4.0])
    sc = optim._Scaling("nn", x, s)
    assert sc.max_step(np.array([-2.0, 1.0, -0.1]), np.zeros(3)) == 0.5
    assert sc.max_step(np.ones(3), np.array([1.0, -4.0, 0.0])) == 0.25
    assert sc.max_step(np.ones(3), np.zeros(3)) == np.inf


# -- the returned iterate -------------------------------------------------


def _kr_member_n12():
    """perfbench's is_kr r = 1, n = 12 member instance, unscaled."""
    rng = np.random.default_rng([7201, 1, 1])
    n = 12
    Q = rng.normal(size=(n, n // 2))
    N = np.abs(rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.3)
    N = (N + N.T) / 2
    return Q @ Q.T / (n // 2) + N - np.diag(np.diag(N)) + 0.1 * np.eye(n)


@pytest.mark.parametrize(
    "M", [cones.horn_matrix(), _kr_member_n12()], ids=["horn", "kr-r1-n12-member"]
)
def test_solver_returns_its_best_iterate(monkeypatch, M):
    """is_kr's solve returns the interior-point iterate of its best_iter
    unchanged: a rerun capped at that many iterations ends on the same
    iterate, bit for bit, and no polish ran."""
    seen = []

    def spy(prob, tol=None):
        sol = solve_sdp(prob, tol)
        seen.append((prob, tol, sol))
        return sol

    monkeypatch.setattr(cones, "solve_sdp", spy)
    v = cones.is_kr(M, 1)
    assert v.status is cones.Verdict.MEMBER
    assert certificates.check(v, M)["ok"]
    (prob, tol, sol), = seen
    assert sol.stats["polish"] == "not_run"
    assert "polish" not in sol.stats["time"]
    capped = solve_sdp(prob, tol, max_iter=sol.stats["best_iter"])
    assert capped.stats["best_iter"] == sol.stats["best_iter"]
    for got, want in zip(capped.blocks + capped.slacks + [capped.y, capped.free],
                         sol.blocks + sol.slacks + [sol.y, sol.free]):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert capped.residuals == sol.residuals


def test_solution_stats():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((4, 4))
    p, _ = min_eig_problem(M + M.T)
    t0 = time.perf_counter()
    sol = solve_sdp(p)
    wall = time.perf_counter() - t0
    assert sol.optimal
    assert sol.stats["polish"] == "not_run"
    assert sol.stats["m"] == 10 and sol.stats["N"] == 10
    assert sol.stats["blocks"] == [["psd", 4]]
    phases = sol.stats["time"]
    assert set(phases) == {"scaling", "schur", "newton", "step", "corrector"}
    assert all(t >= 0.0 for t in phases.values())
    assert phases["newton"] > 0.0
    assert sum(phases.values()) <= wall
    assert sol.stats["iters"] == sol.iterations
    assert sol.stats["refine_rounds"] >= 0
    assert sol.stats["jitter"] >= 0.0
    p = SdpProblem()
    X = p.add_psd(3)
    p.add_eq(1.0, (X, np.eye(3)))
    p.add_eq(-2.0, (X, np.diag([1.0, 1.0, 2.0])))
    assert solve_sdp(p).stats["polish"] == "not_run"


def test_best_iter_records_the_returned_iterate():
    for seed in range(4):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((4, 4))
        p, _ = min_eig_problem(M + M.T)
        sol = solve_sdp(p)
        assert 1 <= sol.stats["best_iter"] <= sol.stats["iters"]
        # an eps of 1e-6 stops at the first iterate that meets it, and the
        # floor rule never fires first, so the last iterate is the best
        loose = solve_sdp(p, 1e-6)
        assert loose.optimal
        assert loose.stats["best_iter"] == loose.stats["iters"]


def test_stop_reasons():
    rng = np.random.default_rng(0)
    M = rng.standard_normal((4, 4))
    p, _ = min_eig_problem(M + M.T)
    assert solve_sdp(p, 1e-6).stats["stop"] == "optimal"
    assert solve_sdp(p).stats["stop"] == "floor"
    p = SdpProblem()
    X = p.add_psd(3)
    p.add_eq(1.0, (X, np.eye(3)))
    p.add_eq(-2.0, (X, np.diag([1.0, 1.0, 2.0])))
    assert solve_sdp(p).stats["stop"] == "primal_infeasible"
    p = SdpProblem()
    X = p.add_psd(2)
    E = np.zeros((2, 2))
    E[0, 1] = E[1, 0] = 0.5
    p.add_eq(1.0, (X, E))
    p.set_cost(X, np.diag([-1.0, 0.0]))
    assert solve_sdp(p).stats["stop"] == "dual_infeasible"


def _printed_scores(out):
    """Per-iteration max(pres, dres, gap) from a verbose solve's lines."""
    scores = []
    for line in out.splitlines():
        f = line.split()
        scores.append(max(float(f[f.index(k) + 1]) for k in ("pres", "dres", "gap")))
    return scores


def test_floor_stop_is_the_first_bounce(capsys):
    problems = []
    for seed in range(6):
        M = np.random.default_rng(seed).standard_normal((6, 6))
        problems.append(min_eig_problem(M + M.T)[0])
    problems += [_pdec_shaped_problem(False)[0], _pdec_shaped_problem(True)[0]]
    floors = 0
    for p in problems:
        sol = solve_sdp(p, verbose=True)
        scores = _printed_scores(capsys.readouterr().out)
        it, best = sol.stats["iters"], sol.stats["best_iter"]
        assert len(scores) == it
        if sol.stats["stop"] != "floor":
            continue
        floors += 1
        assert best < it
        # the verbose lines round to three digits, hence the 1 % allowance
        assert scores[-1] > 10 * scores[best - 1] * 0.99
        assert all(sc <= 10 * scores[best - 1] * 1.01 for sc in scores[best:-1])
    assert floors >= 6


def _pdec_shaped_problem(interleave):
    """The is_pdec SDP of a generic 5x5 pair: hpsd(5), nn(5) and ten
    hpsd(2) bound blocks, declared in one of two orders."""
    rng = np.random.default_rng(8)
    n = 5
    R = np.abs(rng.standard_normal((n, n)))
    R = R + R.T
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    B = 0.3 * G @ G.conj().T
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    p = SdpProblem()
    bone = p.add_hpsd(n)
    if interleave:
        bounds = [p.add_hpsd(2) for _ in pairs[:5]]
        slack = p.add_nn(n)
        bounds += [p.add_hpsd(2) for _ in pairs[5:]]
    else:
        slack = p.add_nn(n)
        bounds = [p.add_hpsd(2) for _ in pairs]

    def pick(d, i, j, part):
        C = np.zeros((d, d), dtype=complex)
        if i == j:
            C[i, i] = 1.0
        else:
            C[i, j] = 0.5 if part == "re" else 0.5j
            C[j, i] = np.conj(C[i, j])
        return C

    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        p.add_eq(B[i, i].real, (bone, pick(n, i, i, "")), (slack, e))
    for blk, (i, j) in zip(bounds, pairs):
        p.add_eq(R[i, j], (blk, pick(2, 0, 0, "")))
        p.add_eq(R[i, j], (blk, pick(2, 1, 1, "")))
        p.add_eq(B[i, j].real, (blk, pick(2, 0, 1, "re")), (bone, pick(n, i, j, "re")))
        p.add_eq(B[i, j].imag, (blk, pick(2, 0, 1, "im")), (bone, pick(n, i, j, "im")))
    p.set_cost(bone, np.eye(n))
    return p, [bone, slack] + bounds


def test_group_layout_is_order_independent():
    p1, refs1 = _pdec_shaped_problem(False)
    p2, refs2 = _pdec_shaped_problem(True)
    s1, s2 = solve_sdp(p1), solve_sdp(p2)
    assert s1.status is s2.status is SdpStatus.OPTIMAL
    assert abs(s1.primal_obj - s2.primal_obj) <= 1e-8
    for r1, r2 in zip(refs1, refs2):
        assert (r1.kind, r1.dim) == (r2.kind, r2.dim)
        np.testing.assert_allclose(s1.block(r1), s2.block(r2), rtol=0, atol=1e-6)
        np.testing.assert_allclose(s1.slack(r1), s2.slack(r2), rtol=0, atol=1e-6)
    # the block lists stay in declaration order
    shapes = [(5, 5)] + [(2, 2)] * 5 + [(5,)] + [(2, 2)] * 5
    assert [b.shape for b in s2.blocks] == shapes


def test_group_layout_compiles_bit_equal():
    # groups go in order of first declaration with the nn group last, so
    # both declaration orders give the same columns and the same solve
    (_, _, g1, A1, _, b1, c1, _) = _pdec_shaped_problem(False)[0].compile()
    (_, _, g2, A2, _, b2, c2, _) = _pdec_shaped_problem(True)[0].compile()
    assert [(g.blk.kind, g.blk.d, g.g) for g in g1] == [
        (g.blk.kind, g.blk.d, g.g) for g in g2] == [
        ("hpsd", 5, 1), ("hpsd", 2, 10), ("nn", 5, 1)]
    assert np.array_equal(A1, A2)
    assert np.array_equal(b1, b2)
    assert np.array_equal(c1, c2)


def _backward_error(M, x, r):
    """Normwise backward error of each column of x as a solve of M x = r."""
    x, r = x.reshape(len(M), -1), r.reshape(len(M), -1)
    return np.linalg.norm(M @ x - r, axis=0) / (
        np.linalg.norm(M, 2) * np.linalg.norm(x, axis=0))


@pytest.mark.parametrize("m", [1, 28, 64, 65, 364])
def test_cholesky_solve_backward_error_matches_potrs(m):
    from scipy.linalg import cho_solve

    rng = np.random.default_rng(m)
    V = np.linalg.qr(rng.standard_normal((m, m)))[0]
    M = (V * np.geomspace(1.0, 1e-12, m)) @ V.T  # cond 1e12 from m = 2 on
    M = 0.5 * (M + M.T)
    L = np.linalg.cholesky(M)
    solver = optim._CholeskySolve(L)
    # a vector, a vector that M maps from a random one (large components on
    # the top of the spectrum), and an (m, 3) block
    for r in (rng.standard_normal(m), M @ rng.standard_normal(m),
              rng.standard_normal((m, 3))):
        x = solver.solve(r)
        assert x.shape == r.shape
        ours = _backward_error(M, x, r)
        lapack = _backward_error(M, cho_solve((L, True), r), r)
        assert np.all(ours <= 4.0 * np.maximum(lapack, np.finfo(float).eps))


@pytest.mark.parametrize("kind, d", [("psd", 4), ("hpsd", 3), ("nn", 6)])
def test_group_svec_smat_match_per_block(kind, d):
    rng = np.random.default_rng(31)
    blk = optim._Block(kind, d)
    g = 1 if kind == "nn" else 5
    grp = optim._Group(blk, 3, g)
    v = rng.standard_normal((2, 3 + g * blk.size + 4))  # two global vectors
    stack = grp.mats(v)
    back = grp.vec(stack)
    for row in range(2):
        seg = v[row, grp.sl]
        if kind == "nn":
            assert np.array_equal(stack[row], seg)
            assert np.array_equal(blk.svec(stack[row]), back[row])
            continue
        for q in range(g):
            part = slice(q * blk.size, (q + 1) * blk.size)
            assert np.array_equal(stack[row, q], blk.smat(seg[part]))
            assert np.array_equal(blk.svec(stack[row, q]), back[row, part])
    np.testing.assert_allclose(back, v[:, grp.sl], rtol=1e-15, atol=0)
    if kind != "nn":
        upper = blk.svec_upper(stack).reshape(2, -1)
        np.testing.assert_allclose(upper, v[:, grp.sl], rtol=1e-15, atol=0)
        # svec of a stack takes each matrix's hermitian part, like svec of one
        M = np.stack([_random_herm(rng, d, kind) + rng.standard_normal((d, d))
                      for _ in range(g)])
        assert np.array_equal(blk.svec(M), np.stack([blk.svec(Mq) for Mq in M]))


# -- LP front end -----------------------------------------------------------


def test_lp_basic_with_duals():
    # min -x - 2y s.t. x + y = 1, x, y >= 0  ->  y = 1, obj -2
    res = solve_lp([-1.0, -2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0])
    assert res.status == "optimal"
    assert abs(res.obj + 2.0) < 1e-9
    assert np.allclose(res.x, [0.0, 1.0], atol=1e-9)
    # equality dual: the marginal of the constraint is the optimal value's
    # sensitivity, here -2
    assert res.dual_eq is not None
    assert abs(res.dual_eq[0] + 2.0) < 1e-9


def test_lp_infeasible():
    res = solve_lp([1.0], A_eq=[[1.0]], b_eq=[-1.0])  # x = -1 with x >= 0
    assert res.status == "infeasible"
    assert res.x is None


def test_lp_unbounded():
    res = solve_lp([-1.0], bounds=[(0, None)])
    assert res.status == "unbounded"


def test_lp_inequality_duals():
    # min -x s.t. x <= 4
    res = solve_lp([-1.0], A_ub=[[1.0]], b_ub=[4.0])
    assert res.status == "optimal"
    assert abs(res.x[0] - 4.0) < 1e-9
    assert res.dual_ub is not None
