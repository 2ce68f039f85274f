import numpy as np
import pytest

from conekit import cones, quantum as qt
from conekit.certificates import check
from conekit.cones import Verdict, berman_matrix, horn_matrix
from conekit.graphs import catalog
from conekit.linalg import DimensionMismatch, as_tolerance, inner
from conekit.pairwise import copcp_form_value, pair_form


def ring(M):
    M = np.asarray(M)
    return M - np.diag(np.diag(M))


def random_pair(rng, n):
    A = np.abs(rng.normal(size=(n, n)))
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    B = (B + B.conj().T) / 2
    d = np.abs(np.real(np.diag(B)))
    A[np.diag_indices(n)] = d
    B = B - np.diag(np.diag(B)) + np.diag(d)
    return pair_form(A, B)


def test_dimension_mismatch_is_the_linalg_class():
    assert qt.DimensionMismatch is DimensionMismatch


# ---------------------------------------------------------------------------
# Choi matrices


def test_choi_ldui_of_identity_pair_is_identity():
    p = pair_form(np.ones((3, 3)), np.eye(3))
    X = qt.choi(p, "LDUI").dense()
    assert np.allclose(X, np.eye(9))


def test_choi_cldui_two_level_example():
    # pair (J_2, I - adjacency of a single edge)
    A = np.ones((2, 2))
    B = np.eye(2) - (np.ones((2, 2)) - np.eye(2))
    X = qt.choi(pair_form(A, B), "CLDUI").dense()
    expected = np.array(
        [
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [-1.0, 0.0, 0.0, 1.0],
        ]
    )
    assert np.allclose(X, expected)


def test_choi_cldui_schur_pair_supported_on_maximally_entangled_block():
    rng = np.random.default_rng(0)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = G @ G.conj().T
    p = pair_form(np.diag(np.real(np.diag(B))), B)
    X = qt.choi(p, "CLDUI").dense()
    n = 3
    for r in range(9):
        for c in range(9):
            i, j = divmod(r, n)
            k, l = divmod(c, n)
            if i == j and k == l and i != k:
                assert X[r, c] == pytest.approx(B[i, k])
            elif r == c:
                assert X[r, c] == pytest.approx(p.A[i, j])
            else:
                assert X[r, c] == 0


def test_choi_is_hermitian():
    rng = np.random.default_rng(1)
    for kind in ("LDUI", "CLDUI"):
        p = random_pair(rng, 4)
        X = qt.choi(p, kind).dense()
        assert np.max(np.abs(X - X.conj().T)) < 1e-12


def test_choi_rejects_unknown_kind():
    p = pair_form(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(ValueError):
        qt.choi(p, "other")


# ---------------------------------------------------------------------------
# twirling


def test_twirl_round_trip():
    rng = np.random.default_rng(2)
    p = random_pair(rng, 4)
    q = qt.twirl_ldui(qt.choi(p, "LDUI").dense())
    assert np.allclose(q.A, p.A, atol=1e-12)
    assert np.allclose(q.B, p.B, atol=1e-12)


def test_twirl_of_product_state():
    rng = np.random.default_rng(3)
    n = 3
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi = np.kron(v, w)
    X = np.outer(psi, psi.conj())
    p = qt.twirl_ldui(X)
    assert np.allclose(p.A, np.outer(np.abs(v) ** 2, np.abs(w) ** 2), atol=1e-12)
    z = v * np.conj(w)
    expected_B = np.outer(z, z.conj())
    assert np.allclose(ring(p.B), ring(expected_B), atol=1e-12)


def test_twirl_is_orthogonal_projection():
    rng = np.random.default_rng(4)
    d = 16
    X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    X = (X + X.conj().T) / 2
    p = qt.twirl_ldui(X)
    base = np.linalg.norm(qt.choi(p, "LDUI").dense() - X)
    for _ in range(10):
        q = random_pair(rng, 4)
        other = np.linalg.norm(qt.choi(q, "LDUI").dense() - X)
        assert base <= other + 1e-9


def test_twirl_rejects_non_square_dimension():
    with pytest.raises(qt.DimensionMismatch):
        qt.twirl_ldui(np.eye(5))


# ---------------------------------------------------------------------------
# map application


def test_apply_map_wheel_formula():
    rng = np.random.default_rng(5)
    G = catalog("pentagon")
    Adj = G.adjacency.astype(float)
    n = G.n
    t = 1.3
    p = pair_form(np.ones((n, n)), np.eye(n) - t * Adj)
    Z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Z = Z @ Z.conj().T
    out = qt.apply_map(p, "DUC", Z)
    assert np.allclose(out, np.trace(Z) * np.eye(n) - t * Adj * Z)
    out2 = qt.apply_map(p, "CDUC", Z)
    assert np.allclose(out2, np.trace(Z) * np.eye(n) - t * Adj * Z.T)


def test_apply_map_identity_gives_row_sums():
    rng = np.random.default_rng(6)
    p = random_pair(rng, 4)
    out = qt.apply_map(p, "DUC", np.eye(4))
    assert np.allclose(out, np.diag(p.A @ np.ones(4)))


def test_apply_map_schur_pair():
    rng = np.random.default_rng(7)
    G = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    B = G @ G.conj().T
    p = pair_form(np.diag(np.real(np.diag(B))), B)
    Z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    Z = (Z + Z.conj().T) / 2
    assert np.allclose(qt.apply_map(p, "DUC", Z), B * Z)


def test_apply_map_dimension_guard():
    p = pair_form(np.ones((3, 3)), np.ones((3, 3)))
    with pytest.raises(qt.DimensionMismatch):
        qt.apply_map(p, "DUC", np.eye(4))


def test_map_hermiticity_preservation():
    rng = np.random.default_rng(8)
    p = random_pair(rng, 4)
    Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Z = (Z + Z.conj().T) / 2
    for kind in ("DUC", "CDUC"):
        out = qt.apply_map(p, kind, Z)
        assert np.max(np.abs(out - out.conj().T)) < 1e-12


# ---------------------------------------------------------------------------
# block positivity


def test_block_positivity_unit_vectors_read_a():
    rng = np.random.default_rng(9)
    p = random_pair(rng, 4)
    for kind in ("LDUI", "CLDUI"):
        e1 = np.zeros(4)
        e3 = np.zeros(4)
        e1[1] = 1.0
        e3[3] = 1.0
        assert qt.block_positivity_value(p, kind, e1, e3) == pytest.approx(
            p.A[1, 3]
        )


def test_block_positivity_closed_form_matches_contraction():
    # the function itself raises if the two paths disagree; drive it over
    # random pairs and vectors on both kinds
    rng = np.random.default_rng(10)
    for trial in range(200):
        n = int(rng.integers(2, 5))
        p = random_pair(rng, n)
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        kind = "LDUI" if trial % 2 else "CLDUI"
        val = qt.block_positivity_value(p, kind, v, w)
        psi = np.kron(v, w)
        ref = float(np.real(psi.conj() @ qt.choi(p, kind).dense() @ psi))
        assert val == pytest.approx(ref, abs=1e-9 * (1 + abs(ref)))


def test_block_positivity_cldui_equals_pair_form_value():
    rng = np.random.default_rng(11)
    p = random_pair(rng, 5)
    v = rng.normal(size=5) + 1j * rng.normal(size=5)
    w = rng.normal(size=5) + 1j * rng.normal(size=5)
    assert qt.block_positivity_value(p, "CLDUI", v, w) == pytest.approx(
        copcp_form_value(p, v, w)
    )


def test_block_positivity_reflection_pair_nonnegative():
    rng = np.random.default_rng(12)
    N = np.abs(rng.normal(size=(5, 5)))
    N = ring((N + N.T) / 2)
    p = pair_form(N, -N)
    vals = [
        qt.block_positivity_value(
            p,
            "LDUI",
            rng.normal(size=5) + 1j * rng.normal(size=5),
            rng.normal(size=5) + 1j * rng.normal(size=5),
        )
        for _ in range(100)
    ]
    assert min(vals) > -1e-10


def test_block_positivity_wheel_clique_threshold():
    G = catalog("pentagon")
    Adj = G.adjacency.astype(float)
    n = G.n
    nb = int(np.nonzero(Adj[0])[0][0])
    e = np.zeros(n)
    e[0] = e[nb] = 1.0 / np.sqrt(2.0)
    for t, expected in ((1.9, 0.05), (2.1, -0.05)):
        p = pair_form(np.ones((n, n)), np.eye(n) - t * Adj)
        val = qt.block_positivity_value(p, "CLDUI", e, e)
        assert val == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Markov-Choi


def test_markov_flat_matrix_bracket():
    n = 5
    x0 = 1.0 - 1.0 / n
    below = qt.markov_choi_check((x0 - 0.02) * np.ones((n, n)))
    above = qt.markov_choi_check((x0 + 0.02) * np.ones((n, n)))
    assert below.status is Verdict.NON_MEMBER
    assert above.status is Verdict.MEMBER
    # refutation is explicit
    A = (x0 - 0.02) * np.ones((n, n))
    p = pair_form(A, np.diag(np.diag(A)) - ring(np.ones((n, n))))
    val = copcp_form_value(p, below.certificate["v"], below.certificate["w"])
    assert val < 0


def test_markov_cushioned_diagonal_always_member():
    rng = np.random.default_rng(13)
    for _ in range(3):
        a = rng.uniform(0, 4, size=5)
        A = np.diag(a) + ring(np.ones((5, 5)))
        v = qt.markov_choi_check(A)
        assert v.status is Verdict.MEMBER
        assert v.certificate["g_max"] <= 1 + 1e-9


def test_markov_diagonal_criterion():
    ok = qt.markov_choi_check(np.diag([4.0, 4.0, 4.0, 4.0, 4.0]))
    assert ok.status is Verdict.MEMBER
    assert ok.certificate["cldui_plus"]
    bad = qt.markov_choi_check(np.diag([3.0, 4.0, 4.0, 4.0, 4.0]))
    assert bad.status is Verdict.NON_MEMBER
    assert not bad.certificate["cldui_plus"]
    assert bad.certificate["g_max"] == pytest.approx(1.05, abs=1e-6)


def test_markov_pdnn_flag():
    # entries >= 1 pairwise and small diagonal sum criterion
    A = np.full((3, 3), 2.0) + 3 * np.eye(3)
    v = qt.markov_choi_check(A)
    assert v.certificate["cldui_plus"]
    assert v.certificate["pdnn"]
    A2 = np.diag([5.0, 5.0, 5.0])  # off-diagonal zero: product < 1
    v2 = qt.markov_choi_check(A2)
    assert v2.certificate["cldui_plus"]
    assert not v2.certificate["pdnn"]


def test_markov_random_starts_follow_effort(monkeypatch):
    real = np.random.default_rng
    draws = []

    class Counting:
        def __init__(self, seed):
            self._rng = real(seed)

        def dirichlet(self, alpha):
            draws.append(len(alpha))
            return self._rng.dirichlet(alpha)

    monkeypatch.setattr(np.random, "default_rng", Counting)
    A = np.full((4, 4), 0.5) + np.eye(4)
    for effort, starts in (("fast", 16), ("default", 64), ("thorough", 256)):
        draws.clear()
        qt.markov_choi_check(A, effort=effort)
        assert draws == [4] * starts, effort


def test_markov_functional_scale_invariance():
    rng = np.random.default_rng(14)
    A = np.abs(rng.normal(size=(5, 5)))
    t = rng.uniform(0.1, 1.0, size=5)
    g1 = qt._markov_g(A, t)
    for alpha in (0.5, 2.0, 17.0):
        assert qt._markov_g(A, alpha * t) == pytest.approx(g1, abs=1e-12)


def test_markov_rejects_negative_input():
    with pytest.raises(ValueError):
        qt.markov_choi_check(np.array([[1.0, -0.2], [0.0, 1.0]]))


# ---------------------------------------------------------------------------
# Dicke states


def test_dicke_class_flat_state_separable():
    cls = qt.dicke_class(np.ones((5, 5)))
    assert cls["psd"] and cls["ppt"]
    assert cls["separable"].status is Verdict.MEMBER


def test_dicke_class_ppt_entangled_parameter():
    cls = qt.dicke_class(berman_matrix().astype(float))
    assert cls["psd"] and cls["ppt"]
    assert cls["separable"].status is Verdict.NON_MEMBER


def test_dicke_class_negative_entry_not_psd():
    P = np.ones((3, 3))
    P[0, 1] = P[1, 0] = -0.5
    cls = qt.dicke_class(P)
    assert not cls["psd"]
    assert not cls["ppt"]


def test_dicke_state_trace():
    P = berman_matrix().astype(float)
    st = qt.dicke(P)
    assert np.trace(st.choi.dense()).real == pytest.approx(np.sum(P))


def test_dicke_extendibility_level_two_is_ppt():
    assert qt.dicke_extendibility(berman_matrix().astype(float), 2).status is (
        Verdict.MEMBER
    )
    rng = np.random.default_rng(15)
    P = np.abs(rng.normal(size=(5, 5)))
    P = (P + P.T) / 2
    assert np.linalg.eigvalsh(P)[0] < -1e-6
    assert qt.dicke_extendibility(P, 2).status is Verdict.NON_MEMBER


def test_dicke_extendibility_berman_fails_level_three():
    v = qt.dicke_extendibility(berman_matrix().astype(float), 3)
    assert v.status is Verdict.NON_MEMBER
    assert v.value == pytest.approx(-0.011600590846556, abs=1e-9)


def test_dicke_extendibility_level_guard():
    with pytest.raises(qt.UnsupportedLevel):
        qt.dicke_extendibility(np.eye(3), 1)
    with pytest.raises(qt.UnsupportedLevel):
        qt.dicke_extendibility(np.eye(3), 5)


# ---------------------------------------------------------------------------
# witnesses


def test_witness_from_horn_value_on_berman():
    H = horn_matrix()
    N = np.diag(np.diag(H)) + ring(np.ones((5, 5)))
    W = qt.witness_from_cop(H, N)
    assert W.level == 1
    assert W.evaluate(berman_matrix()) == pytest.approx(3.0)
    assert not W.detects(berman_matrix())


def test_witness_detects_spn_refutation_dual():
    H = horn_matrix()
    N = np.diag(np.diag(H)) + ring(np.ones((5, 5)))
    W = qt.witness_from_cop(H, N)
    spn = cones.is_spn(H)
    assert spn.status is Verdict.NON_MEMBER
    X = spn.certificate["X"]
    # the refutation dual is doubly nonnegative and pairs negatively
    assert np.min(X) > -1e-9
    assert np.linalg.eigvalsh(X)[0] > -1e-8
    assert W.evaluate(X) < -1e-4
    assert W.detects(X)


def test_witness_psd_base_sound_on_doubly_nonnegative():
    rng = np.random.default_rng(16)
    M = rng.normal(size=(5, 3))
    Mpsd = M @ M.T
    W = qt.witness_from_cop(Mpsd, np.diag(np.diag(Mpsd)))
    for _ in range(5):
        F = np.abs(rng.normal(size=(5, 4)))
        P = F @ F.T
        assert W.evaluate(P) >= -1e-9


def test_witness_wheel_matrix_at_declared_level():
    G = catalog("pentagon")
    M = np.ones((5, 5)) - 2.0 * G.adjacency.astype(float)
    assert np.allclose(M, horn_matrix())
    W = qt.witness_from_cop(M, np.ones((5, 5)), level=1)
    assert W.level == 1


def test_witness_uncertified_raises():
    with pytest.raises(qt.LevelNotCertified):
        qt.witness_from_cop(-np.eye(3), -np.eye(3))


def test_witness_diag_mismatch():
    from conekit.pairwise import DiagonalMismatch

    with pytest.raises(DiagonalMismatch):
        qt.witness_from_cop(np.eye(3), 2 * np.eye(3))


def test_witness_soundness_against_extendible_states():
    # a witness certified at hierarchy level l pairs nonnegatively with
    # every P whose extendibility at level l + 2 is certified
    H = horn_matrix()
    W = qt.witness_from_cop(H, np.diag(np.diag(H)) + ring(np.ones((5, 5))))
    P, certs = qt.find_extendible_entangled(5, 3)
    assert certs["extendibility"].status is Verdict.MEMBER
    assert W.evaluate(P) >= -1e-7


# ---------------------------------------------------------------------------
# extendible-entangled search


def test_find_extendible_entangled_level_two_returns_ppt_entangled():
    P, certs = qt.find_extendible_entangled(5, 2)
    # the window is (s_W, 1]: the Berman end itself is PPT, so the midpoint
    # keeps a margin on both sides
    s_W, s_ext = certs["window"]
    assert s_ext == pytest.approx(1.0, abs=1e-7) and s_W < certs["s"] < s_ext
    assert certs["extendibility"].value > 1e-3
    assert certs["pairing"] < -1e-3
    assert certs["extendibility"].status is Verdict.MEMBER


def test_find_extendible_entangled_level_three():
    P, certs = qt.find_extendible_entangled(5, 3)
    # both certificates re-verified from scratch
    chk = cones.in_kr_dual(P, 1)
    assert chk.status is Verdict.MEMBER
    W = certs["cp_witness"]
    assert inner(P, W) < -1e-7
    cop = cones.is_cop(W)
    assert cop.status is Verdict.MEMBER


def _segment(n):
    C = np.eye(n) + np.ones((n, n))
    P1 = np.eye(n)
    P1[:5, :5] = berman_matrix()
    return lambda s: (1.0 - s) * C + s * P1


@pytest.mark.parametrize("level", [0, 1, 2])
def test_dual_optimum_is_affine_along_the_segment(level):
    # <C, M> = 1 on in_kr_dual's section, so v*(s) = (1 - s) + s v*(1)
    P_of = _segment(5)
    v1 = cones.in_kr_dual(P_of(1.0), level).value
    for s in (0.3, 0.7, 0.95):
        vs = cones.in_kr_dual(P_of(s), level).value
        assert abs(vs - ((1.0 - s) + s * v1)) < 1e-6


def _counting_in_kr_dual(monkeypatch):
    calls = []
    real = cones.in_kr_dual

    def spy(P, r, tol=None):
        calls.append(r)
        return real(P, r, tol)

    monkeypatch.setattr(cones, "in_kr_dual", spy)
    return calls


def test_find_extendible_entangled_solve_count(monkeypatch):
    calls = _counting_in_kr_dual(monkeypatch)
    qt.find_extendible_entangled(5, 3)
    assert calls == [1, 1]  # at s = 1 and at the returned point


@pytest.mark.parametrize("n,r", [(n, r) for n in range(5, 9) for r in (2, 3, 4)
                                 if (n, r) != (5, 4)])
def test_find_extendible_entangled_margins(monkeypatch, n, r):
    calls = _counting_in_kr_dual(monkeypatch)
    P, certs = qt.find_extendible_entangled(n, r)
    assert calls == [r - 2, r - 2]
    feas = as_tolerance(None).feas_tol
    s_W, s_ext = certs["window"]
    assert s_W < certs["s"] < s_ext
    ext, cp = certs["extendibility"], certs["cp_verdict"]
    assert ext.status is Verdict.MEMBER and ext.value >= 10 * feas
    assert -certs["pairing"] >= 10 * feas
    assert cp.value == certs["pairing"] == inner(P, certs["cp_witness"])
    assert check(ext, P)["ok"] and check(cp, P)["ok"]


def test_find_extendible_entangled_five_four_has_no_window():
    # s_ext there sits on the zero of the scaled 5-cycle witnesses, so
    # is_cp finds no witness at P(s_ext) and the window is empty
    with pytest.raises(qt.SearchFailed, match="s_ext"):
        qt.find_extendible_entangled(5, 4)


@pytest.mark.parametrize("n,r", [(5, 3), (6, 4)])
def test_separator_at_the_berman_end_vanishes_at_s_ext(n, r):
    # every M on in_kr_dual's section pairs with P(s) at or above v*(s), so
    # the separator at s = 1 cannot certify entanglement where P(s) is
    # extendible: its zero is s_ext itself
    P_of = _segment(n)
    sep = cones.in_kr_dual(P_of(1.0), r - 2)
    assert sep.status is Verdict.NON_MEMBER
    M = sep.certificate["M"]
    cM, pM = inner(P_of(0.0), M), inner(P_of(1.0), M)
    assert cM == pytest.approx(1.0, abs=10 * as_tolerance(None).feas_tol)
    _, certs = qt.find_extendible_entangled(n, r)
    assert cM / (cM - pM) == pytest.approx(certs["window"][1], abs=1e-7)


def test_find_extendible_entangled_point_nests_into_lower_levels():
    # K^(0)* ⊇ K^(1)* ⊇ K^(2)*, and the optimum does not fall going down
    P, certs = qt.find_extendible_entangled(6, 4)
    v2 = certs["extendibility"].value
    for level in (1, 0):
        v = cones.in_kr_dual(P, level)
        assert v.status is Verdict.MEMBER and v.value >= v2
        assert check(v, P)["ok"]


def test_find_extendible_entangled_small_dimension_rejected():
    with pytest.raises(ValueError):
        qt.find_extendible_entangled(4, 3)


# ---------------------------------------------------------------------------
# necessary extendibility filter


def test_ext_necessary_star_horn_pair():
    H = horn_matrix()
    N = np.diag(np.diag(H)) + ring(np.ones((5, 5)))
    p = pair_form(N, H - ring(N))
    S = p.A + p.A.T + 2 * np.real(ring(p.B))
    assert np.allclose(S, 2 * H)
    assert qt.ext_necessary_star(p, 1) == "FAIL"
    assert qt.ext_necessary_star(p, 2) == "PASS"


def test_ext_necessary_star_easy_pair():
    p = pair_form(np.ones((3, 3)), np.eye(3))
    assert qt.ext_necessary_star(p, 1) == "PASS"
    assert qt.ext_necessary_star(p, 2) == "PASS"


def test_ext_necessary_star_level_guard():
    p = pair_form(np.ones((2, 2)), np.ones((2, 2)))
    with pytest.raises(qt.UnsupportedLevel):
        qt.ext_necessary_star(p, 0)
