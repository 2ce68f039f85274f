import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conekit import cones, graphs
from conekit.certificates import check
from conekit.cones import (
    Effort,
    SizeLimit,
    Verdict,
    berman_matrix,
    classify_elementary,
    cop_refute,
    cp_factor,
    horn_matrix,
    in_kr_dual,
    is_cop,
    is_cp,
    is_kr,
    is_spn,
    project_simplex,
    verify_gram,
)
from conekit.linalg import inner
from conekit.optim import solve_sdp


def rand_psd(rng, n, k=None):
    G = rng.normal(size=(n, k or n))
    return G @ G.T


def rand_nonneg_sym(rng, n):
    E = np.abs(rng.normal(size=(n, n)))
    return (E + E.T) / 2


# ---------------------------------------------------------------------------
# reference matrices and elementary classification


def test_reference_matrices_shapes():
    H = horn_matrix()
    B = berman_matrix()
    assert H.shape == (5, 5) and np.allclose(H, H.T)
    assert B.shape == (5, 5) and np.allclose(B, B.T)
    # H has -1 exactly on a 5-cycle, +1 elsewhere
    assert np.sum(H < 0) == 10
    assert np.allclose(np.abs(H), 1.0)
    # B is doubly nonnegative
    assert np.min(B) >= 0
    assert np.linalg.eigvalsh(B)[0] > -1e-12


def test_classify_elementary_profiles():
    rng = np.random.default_rng(0)
    P = rand_psd(rng, 4)
    prof = classify_elementary(P)
    assert prof.in_psd
    assert prof.min_eig > -1e-10
    E = rand_nonneg_sym(rng, 4)
    prof2 = classify_elementary(E - 10 * np.eye(4))
    assert prof2.in_ewp is False or prof2.in_psd is False
    prof3 = classify_elementary(berman_matrix())
    assert prof3.in_ewp and prof3.in_psd and prof3.in_dnn


def test_effort_presets():
    assert Effort.of("fast").max_level == 1
    assert Effort.of("default").max_level == 2
    assert Effort.of("thorough").refute_starts == 256
    e = Effort(name="x", max_level=0)
    assert Effort.of(e) is e
    with pytest.raises(ValueError):
        Effort.of("bogus")


# ---------------------------------------------------------------------------
# simplex tooling


def test_project_simplex_properties():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.normal(size=6) * 3
        x = project_simplex(v)
        assert np.min(x) >= -1e-15
        assert np.sum(x) == pytest.approx(1.0)
        # projection optimality against random feasible points
        y = rng.dirichlet(np.ones(6))
        assert np.linalg.norm(v - x) <= np.linalg.norm(v - y) + 1e-12


def test_cop_refute_face_embedding():
    # the minimizer can live on a strict face; the returned vector must be
    # expressed in the ambient coordinates and reproduce the value
    M = np.eye(5)
    M[0, 1] = M[1, 0] = -4.0
    val, x = cop_refute(M)
    assert x.shape == (5,)
    assert val == pytest.approx(float(x @ M @ x))
    assert val < -1.0
    assert np.sum(x[2:]) == pytest.approx(0.0, abs=1e-9)


def test_cop_refute_on_positive_definite():
    val, x = cop_refute(np.eye(4))
    assert val >= 0.25 - 1e-9  # simplex minimum of x^T x at the barycenter
    assert val == pytest.approx(float(x @ np.eye(4) @ x))


# ---------------------------------------------------------------------------
# SPN


def test_spn_membership_split():
    rng = np.random.default_rng(2)
    M = rand_psd(rng, 5) + rand_nonneg_sym(rng, 5)
    v = is_spn(M)
    assert v.status is Verdict.MEMBER
    P, E = v.certificate["P"], v.certificate["E"]
    assert np.linalg.eigvalsh(P)[0] > -1e-7
    assert np.min(E) > -1e-9
    assert np.max(np.abs(P + E - v.certificate["shift"] * np.eye(5) - M)) < 1e-6


def test_spn_refutation_of_cycle_matrix():
    v = is_spn(horn_matrix())
    assert v.status is Verdict.NON_MEMBER
    assert v.value == pytest.approx(np.sqrt(5.0) - 2.0, abs=1e-9)
    X = v.certificate["X"]
    # the witness is doubly nonnegative with trace one and pairs negatively
    assert np.min(X) >= -1e-12
    assert np.linalg.eigvalsh(X)[0] > -1e-7
    assert np.trace(X) == pytest.approx(1.0)
    assert v.certificate["pairing"] == pytest.approx(-0.2360679774997876, abs=1e-8)
    assert inner(X, horn_matrix()) == pytest.approx(v.certificate["pairing"])


def test_spn_negative_eigenvalue_matrix_rejected():
    v = is_spn(-np.eye(3))
    assert v.status is Verdict.NON_MEMBER


def test_spn_dual_witness_is_strictly_doubly_nonnegative():
    rng = np.random.default_rng(11)
    batch = [horn_matrix() * s for s in (1e-3, 1.0, 37.0, 1e3)]
    for n in range(4, 8):
        for _ in range(4):
            M = rng.normal(size=(n, n))
            batch.append((M + M.T) * 10.0 ** rng.uniform(-3, 3))
    refuted = 0
    for M in batch:
        v = is_spn(M)
        if v.status is not Verdict.NON_MEMBER:
            continue
        refuted += 1
        X = v.certificate["X"]
        assert np.min(X) >= 0.0
        assert np.linalg.eigvalsh(X)[0] >= -1e-14
        assert np.trace(X) == pytest.approx(1.0)
        assert inner(X, M) < 0
        assert v.certificate["pairing"] == inner(X, M)
    assert refuted >= 16


# the graphs whose sigma the direct SDP decides in gap_scan over the bundled
# connected graphs on 5-7 vertices
_GAP_SCAN_SDP = ["FhEK_", "F{cZG", "FL~Cg", "Ffwhg", "FEl~?", "FJe~O",
                 "Fb]lg", "FzM]W"]


def _spn_cases():
    c8 = graphs.Graph.from_edges(
        8, [(i, (i + d) % 8) for i in range(8) for d in (1, 2)])
    gs = [("wheel6", graphs.catalog("wheel6")),
          ("petersen", graphs.catalog("petersen")), ("c8-12", c8)]
    gs += [(g6, graphs.Graph.from_graph6(g6)) for g6 in _GAP_SCAN_SDP]
    cases = [pytest.param(lambda G=G: (graphs.sigma(G, strategy="sdp"), G),
                          id=name) for name, G in gs]
    cases += [pytest.param(lambda M=M: (is_spn(M), M), id=name)
              for name, M in (("horn", horn_matrix()),
                              ("identity-plus-ones", np.eye(5) + np.ones((5, 5))))]
    return cases


def _spy_solves(monkeypatch, keep_copy=False):
    seen = []

    def spy(prob, tol=None):
        sol = solve_sdp(prob, tol)
        seen.append((sol, copy.deepcopy(sol) if keep_copy else None))
        return sol

    monkeypatch.setattr(cones, "solve_sdp", spy)
    return seen


@pytest.mark.parametrize("run", _spn_cases())
def test_spn_snap_outcome_and_certificate(monkeypatch, request, run):
    seen = _spy_solves(monkeypatch)
    res, target = run()
    assert check(res, target)["ok"]
    (sol, _), = seen
    assert sol.stats["polish"] in ("accepted", "rejected")
    assert sol.stats["time"]["polish"] > 0.0
    if request.node.callspec.id == "wheel6":
        # the iterate stops at its floor, and only the snap makes the
        # wheel's closed-form eigenvalues (acceptance criterion 4)
        assert sol.stats["stop"] == "floor"
        assert sol.stats["polish"] == "accepted"


def test_spn_snap_rejection_keeps_the_iterate(monkeypatch):
    seen = _spy_solves(monkeypatch, keep_copy=True)
    monkeypatch.setattr(cones, "_psd_face", lambda M: False)
    res = graphs.sigma(graphs.catalog("wheel6"), strategy="sdp")
    (sol, before), = seen
    assert sol.stats["polish"] == "rejected"
    for got, want in zip(sol.blocks + sol.slacks + [sol.y, sol.free],
                         before.blocks + before.slacks + [before.y, before.free]):
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    assert sol.residuals == before.residuals
    assert res.value == -before.primal_obj


# ---------------------------------------------------------------------------
# hierarchy levels


def test_level_zero_agrees_with_spn():
    rng = np.random.default_rng(3)
    for _ in range(6):
        M = rng.normal(size=(4, 4))
        M = (M + M.T) / 2
        assert is_kr(M, 0).status == is_spn(M).status


def test_cycle_matrix_enters_at_level_one():
    H = horn_matrix()
    assert is_kr(H, 0).status is Verdict.NON_MEMBER
    v1 = is_kr(H, 1)
    assert v1.status is Verdict.MEMBER
    assert verify_gram(5, 1, H, v1.certificate)
    # monotonicity along the hierarchy
    assert is_kr(H, 2).status is Verdict.MEMBER


def test_gram_certificate_detects_tampering():
    H = horn_matrix()
    cert = is_kr(H, 1).certificate
    bad = {
        "blocks": [dict(b) for b in cert["blocks"]],
        "singles": cert["singles"],
        "shift": cert["shift"],
    }
    bad["blocks"][0] = dict(bad["blocks"][0])
    G = np.array(bad["blocks"][0]["G"])
    G[0, 0] += 0.5
    bad["blocks"][0]["G"] = G
    assert not verify_gram(5, 1, H, bad)


def test_gram_certificate_of_the_wrong_shape_fails():
    H = horn_matrix()
    cert = is_kr(H, 1).certificate
    assert verify_gram(5, 1, H, cert)
    small = {**cert, "blocks": [{"G": np.eye(2)}] + cert["blocks"][1:]}
    assert not verify_gram(5, 1, H, small)
    assert not verify_gram(5, 1, H, {**cert, "singles": cert["singles"][:1]})
    assert not verify_gram(5, 1, H, {**cert, "blocks": cert["blocks"][:1]})


def test_level_moment_refutation_is_consistent():
    v = is_kr(horn_matrix(), 0)
    assert v.status is Verdict.NON_MEMBER
    assert v.certificate["pairing"] < -1e-6
    mb = v.certificate["moment_blocks"]
    for blk in mb["blocks"]:
        assert np.linalg.eigvalsh(blk)[0] > -1e-6
    if mb["singles"].size:
        assert np.min(mb["singles"]) > -1e-6


# the hierarchy's index tables, at the shapes of the perfbench solves and
# the largest supported ones
TABLE_SHAPES = [(5, 0), (5, 1), (5, 2), (8, 2), (12, 1), (16, 1)]


def _kr_compiled(n, r):
    sd = cones._sos_data(n, r)
    prob, grams, singles, _ = cones._sos_problem(sd, np.eye(n), [np.eye(n)])
    blocks, sl, _, A, *_ = prob.compile()
    return sd, grams, singles, blocks, sl, A


@pytest.mark.parametrize("n, r", [(3, 1), (4, 2), (5, 0), (6, 1)])
def test_sos_coefficients_expand_the_target_polynomial(n, r):
    # at y = x^2 the target is (sum y)^r y^T M y = sum_g coeffs[g] y^g
    rng = np.random.default_rng(n + r)
    M = rng.normal(size=(n, n))
    M = M + M.T
    sd = cones._sos_data(n, r)
    for y in rng.random((3, n)):
        poly = np.sum(y) ** r * (y @ M @ y)
        assert sd.coeffs(M) @ np.prod(y ** sd.expo, axis=1) == pytest.approx(poly)


@pytest.mark.parametrize("n, r", [(2, 1), (4, 2), (5, 1), (6, 0)])
def test_sos_coefficient_table_matches_the_term_by_term_loop(n, r):
    # C[g, i, j] = r! / prod_k (g - e_i - e_j)_k!, one term at a time
    sd = cones._sos_data(n, r)
    C = np.zeros_like(sd.C)
    for gi, g in enumerate(sd.expo.tolist()):
        for i in range(n):
            for j in range(n):
                dd = list(g)
                dd[i] -= 1
                dd[j] -= 1
                if min(dd) >= 0:
                    C[gi, i, j] = float(math.factorial(r)) / math.prod(
                        math.factorial(v) for v in dd)
    assert np.array_equal(sd.C, C)
    # exponents of degree r + 2, each once, first exponent descending
    assert np.all(sd.expo.sum(axis=1) == r + 2)
    assert sorted(map(tuple, sd.expo.tolist()), reverse=True) == sd.monomials(
        np.arange(len(sd.expo)))


@pytest.mark.parametrize("n, r", TABLE_SHAPES)
def test_sos_cone_columns_have_one_nonzero_in_the_tabled_row(n, r):
    sd, grams, singles, _, sl, A = _kr_compiled(n, r)
    # blocks and singles split the monomials by parity; a Gram entry feeds
    # the monomial halfway between its two
    parts = np.concatenate(sd.blocks + [sd.singles])
    assert np.array_equal(np.sort(parts), np.arange(len(sd.expo)))
    for g, rows in zip(sd.blocks, sd.rows, strict=True):
        assert len(g) > 1 and len({tuple(e % 2) for e in sd.expo[g]}) == 1
        assert np.array_equal(2 * sd.expo[rows], sd.expo[g][:, None] + sd.expo[g])
    # the free multiplier lives in F, so every column of A is a Gram entry
    # or a single
    assert np.all(np.count_nonzero(A, axis=0) == 1)
    hit = np.argmax(A != 0, axis=0)
    for ref, rows in zip(grams, sd.rows, strict=True):
        a, b = np.triu_indices(ref.dim)
        assert np.array_equal(hit[sl[ref.index]], rows[a, b])
    assert np.array_equal(hit[sl[singles.index]], sd.singles)


@pytest.mark.parametrize("n, r", TABLE_SHAPES)
def test_gram_coefficient_vector_is_the_column_product(n, r):
    sd, grams, singles, blocks, sl, A = _kr_compiled(n, r)
    rng = np.random.default_rng(10 * n + r)
    x = np.zeros(A.shape[1])
    cert = {"blocks": [], "singles": rng.normal(size=len(sd.singles))}
    for ref in grams:
        G = rng.normal(size=(ref.dim, ref.dim))
        G = G + G.T
        cert["blocks"].append({"G": G})
        x[sl[ref.index]] = blocks[ref.index].svec(G)
    x[sl[singles.index]] = cert["singles"]
    np.testing.assert_allclose(cones.gram_coefficient_vector(sd, cert), A @ x,
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("verdict, M, r", [
    (is_kr, horn_matrix(), 0),
    (in_kr_dual, np.eye(5) + np.ones((5, 5)), 1),
])
def test_moment_blocks_are_z_read_through_the_tables(verdict, M, r):
    v = verdict(M, r)
    assert v.status is (Verdict.NON_MEMBER if verdict is is_kr else Verdict.MEMBER)
    sd = cones._sos_data(len(M), r)
    z, mb = v.certificate["moment"], v.certificate["moment_blocks"]
    for B, rows in zip(mb["blocks"], sd.rows, strict=True):
        np.testing.assert_allclose(B, z[rows], atol=1e-8)
    np.testing.assert_allclose(mb["singles"], z[sd.singles], atol=1e-8)


def test_level_guards():
    with pytest.raises(ValueError):
        is_kr(np.eye(3), 3)
    with pytest.raises(SizeLimit):
        is_kr(np.eye(9), 2)
    with pytest.raises(SizeLimit):
        is_kr(np.eye(17), 0)


# ---------------------------------------------------------------------------
# copositivity front end


def test_cop_member_levels():
    v = is_cop(horn_matrix())
    assert v.status is Verdict.MEMBER
    assert v.level == 1
    w = is_cop(np.eye(4) + np.ones((4, 4)))
    assert w.status is Verdict.MEMBER
    assert w.level == 0


def test_cop_refutation_explicit_vector():
    v = is_cop(-np.eye(4))
    assert v.status is Verdict.NON_MEMBER
    x = v.certificate["vector"]
    assert np.min(x) >= 0
    assert v.value == pytest.approx(-1.0, abs=1e-9)
    assert float(x @ (-np.eye(4)) @ x) == pytest.approx(v.value)


def test_cop_entrywise_nonneg_is_level_zero():
    rng = np.random.default_rng(4)
    M = rand_nonneg_sym(rng, 5)
    v = is_cop(M)
    assert v.status is Verdict.MEMBER
    assert v.level == 0


# ---------------------------------------------------------------------------
# dual hierarchy


def test_dual_membership_reconstruction():
    v = in_kr_dual(berman_matrix(), 0)
    assert v.status is Verdict.MEMBER
    assert v.certificate["y0"] >= -1e-9
    assert v.certificate["recon_residual"] < 1e-5
    for blk in v.certificate["moment_blocks"]["blocks"]:
        assert np.linalg.eigvalsh(blk)[0] > -1e-6


def test_dual_separation_values():
    d1 = in_kr_dual(berman_matrix(), 1)
    assert d1.status is Verdict.NON_MEMBER
    assert d1.value == pytest.approx(-0.011600590846556, abs=1e-6)
    M = d1.certificate["M"]
    # the separator is a certified level-1 matrix pairing negatively
    assert d1.certificate["pairing"] == pytest.approx(d1.value, abs=1e-7)
    assert is_kr(M, 1).status is Verdict.MEMBER
    d2 = in_kr_dual(berman_matrix(), 2)
    assert d2.status is Verdict.NON_MEMBER
    assert d2.value == pytest.approx(-0.011644070900366, abs=1e-7)


def test_berman_dual_solve_stops_at_its_first_bounce(monkeypatch):
    seen = []

    def spy(prob, tol=None):
        sol = solve_sdp(prob, tol)
        seen.append((prob, tol, sol))
        return sol

    monkeypatch.setattr(cones, "solve_sdp", spy)
    d1 = in_kr_dual(berman_matrix(), 1)
    assert len(seen) == 1
    prob, tol, sol = seen[0]
    stats = sol.stats
    assert stats["stop"] == "floor"
    assert stats["best_iter"] < stats["iters"]
    # the solver is deterministic, so one iteration less runs out of
    # iterations: no earlier bounce was passed over
    assert solve_sdp(prob, tol, max_iter=stats["iters"] - 1).stats["stop"] == "max_iter"
    assert d1.value == pytest.approx(-0.011600590846556, abs=1e-6)


def test_berman_dual_value_is_invariant_under_relabelling_and_scale():
    # the level-1 dual optimum of the Berman matrix is a property of the
    # matrix: each relabelling and scale gives a checked separator and the
    # same value per unit scale, to the solver's spread at its floor
    B = berman_matrix().astype(float)
    perms = np.random.default_rng(0).permuted(np.tile(np.arange(5), (12, 1)),
                                              axis=1)
    perms[0] = np.arange(5)
    for p in perms:
        for scale in (1.0, 3.0, 0.25):
            P = scale * B[np.ix_(p, p)]
            v = in_kr_dual(P, 1)
            assert v.status is Verdict.NON_MEMBER
            assert check(v, P)["ok"]
            assert v.value / scale == pytest.approx(-0.011600590846556, abs=1e-6)


def test_dual_of_factorizable_matrix_all_levels():
    rng = np.random.default_rng(5)
    F = np.abs(rng.normal(size=(5, 7)))
    P = F @ F.T
    for r in (0, 1):
        assert in_kr_dual(P, r).status is Verdict.MEMBER


def test_dual_guards():
    with pytest.raises(ValueError):
        in_kr_dual(np.eye(3), 3)
    with pytest.raises(SizeLimit):
        in_kr_dual(np.eye(9), 2)
    with pytest.raises(SizeLimit):
        in_kr_dual(np.eye(17) + np.ones((17, 17)), 1)


def test_cop_beyond_the_hierarchy_size_skips_its_levels():
    # Paley(17): n = 17 is past the hierarchy's n <= 16, so is_cop notes the
    # skipped levels and still returns a verdict
    A = graphs.paley(17).adjacency
    J = np.ones((17, 17))
    refuted = is_cop(J - 1.6 * A)
    assert refuted.status is Verdict.NON_MEMBER
    assert check(refuted, J - 1.6 * A)["ok"]
    open_ = is_cop(J - 1.4 * A, effort="fast")
    assert open_.status is Verdict.UNKNOWN
    assert open_.detail == "; ".join(
        f"level {r} skipped (matrices up to n = 16 are supported)" for r in (0, 1)
    )


def test_dual_pairs_nonnegatively_with_certified_members():
    # soundness across the duality bracket: a dual member must pair >= 0
    # with every certified primal member
    rng = np.random.default_rng(6)
    F = np.abs(rng.normal(size=(5, 6)))
    P = F @ F.T
    assert in_kr_dual(P, 1).status is Verdict.MEMBER
    H = horn_matrix()
    assert is_kr(H, 1).status is Verdict.MEMBER
    assert inner(P, H) >= -1e-9


# ---------------------------------------------------------------------------
# complete positivity


def test_cp_factorization_member():
    rng = np.random.default_rng(7)
    F = np.abs(rng.normal(size=(5, 8)))
    M = F @ F.T
    v = is_cp(M)
    assert v.status is Verdict.MEMBER
    B = v.certificate["factor"]
    assert np.min(B) >= -1e-9
    assert np.max(np.abs(B @ B.T - M)) < 1e-5 * max(1.0, np.max(np.abs(M)))
    assert v.certificate["residual"] == pytest.approx(np.max(np.abs(B @ B.T - M)))


def test_cp_low_dimension_reduces_to_dnn():
    rng = np.random.default_rng(8)
    F = np.abs(rng.normal(size=(4, 6)))
    v = is_cp(F @ F.T)
    assert v.status is Verdict.MEMBER
    assert "route" in v.certificate or "factor" in v.certificate


def test_cp_rejects_non_psd_and_negative_entries():
    bad = np.eye(3)
    bad[0, 1] = bad[1, 0] = -0.5
    v = is_cp(bad)
    assert v.status is Verdict.NON_MEMBER
    assert v.certificate["kind"] == "sign-violation"
    w = is_cp(np.diag([1.0, -1.0, 1.0]))
    assert w.status is Verdict.NON_MEMBER
    assert w.certificate["kind"] == "psd-violation"


def test_cp_separates_doubly_nonnegative_non_member():
    v = is_cp(berman_matrix())
    assert v.status is Verdict.NON_MEMBER
    assert v.certificate["kind"] == "cycle-scaled"
    assert v.value == pytest.approx(-1.0 / 195.0, abs=1e-9)
    W = v.certificate["witness"]
    # the witness is copositive (scaled cycle form) and pairs negatively
    assert inner(W, berman_matrix()) == pytest.approx(v.value, abs=1e-12)
    assert is_cop(W).status is Verdict.MEMBER


def test_cp_witness_value_against_factored_matrices():
    rng = np.random.default_rng(9)
    v = is_cp(berman_matrix())
    W = v.certificate["witness"]
    for _ in range(10):
        F = np.abs(rng.normal(size=(5, 5)))
        assert inner(W, F @ F.T) >= -1e-10


def test_cp_factor_inner_dimension():
    rng = np.random.default_rng(10)
    F = np.abs(rng.normal(size=(4, 4)))
    M = F @ F.T
    B = cp_factor(M)
    assert B is not None
    assert B.shape[0] == 4 and B.shape[1] <= 4 * 5 // 2


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_chain_cp_implies_dnn_implies_spn(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    F = np.abs(rng.normal(size=(n, n + 2)))
    M = F @ F.T
    prof = classify_elementary(M)
    assert prof.in_dnn
    assert is_spn(M).status is Verdict.MEMBER
    assert is_kr(M, 0).status is Verdict.MEMBER


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_cop_never_contradicts_refuter(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    M = rng.normal(size=(n, n))
    M = (M + M.T) / 2
    v = is_cop(M, effort="fast", seed=seed)
    if v.status is Verdict.NON_MEMBER:
        x = v.certificate["vector"]
        assert np.min(x) >= 0
        assert float(x @ M @ x) < 0
    elif v.status is Verdict.MEMBER:
        val, x = cop_refute(M, effort="fast", seed=seed + 1)
        assert val >= -1e-7 * max(1.0, np.max(np.abs(M)))


# ---------------------------------------------------------------------------
# the copositivity refuter: exact face scan up to n = 12


def _loop_scan(M):
    """The per-support reference scan: one solve per face, in mask order."""
    n = M.shape[0]
    i = int(np.argmin(np.diag(M)))
    best_val = float(M[i, i])
    best_x = np.zeros(n)
    best_x[i] = 1.0
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if len(idx) < 2:
            continue
        sub = M[np.ix_(idx, idx)]
        ones = np.ones(len(idx))
        try:
            xr = np.linalg.solve(sub, ones)
        except np.linalg.LinAlgError:
            xr, *_ = np.linalg.lstsq(sub, ones, rcond=None)
            if np.max(np.abs(sub @ xr - ones)) > 1e-9:
                continue
        s = float(xr.sum())
        if abs(s) < 1e-12:
            continue
        xf = xr / s
        if float(np.min(xf)) < 0.0:
            continue
        if 1.0 / s < best_val:
            best_val = 1.0 / s
            best_x = np.zeros(n)
            best_x[idx] = xf
    return best_val, best_x


def _scan_inputs(seed):
    """Seeded symmetric inputs, n = 2-9, several with singular faces."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(2, 10):
        M = rng.normal(size=(n, n))
        out.append((M + M.T) / 2)
        V = rng.normal(size=(n, 2))
        out.append(V @ V.T)                        # rank 2: singular faces
        out.append(V @ V.T - 1e-3 * np.eye(n))
        rep = list(range(n - 1)) + [0]             # repeated row and column
        out.append((rand_nonneg_sym(rng, n - 1) - 0.5)[np.ix_(rep, rep)])
        out.append(np.round(2 * ((M + M.T) / 2)))  # integer entries, ties
    return out


def test_batched_scan_matches_per_support_loop():
    for M in _scan_inputs(17) + [horn_matrix(), -horn_matrix()]:
        val, x = cones._support_scan(M)
        ref_val, ref_x = _loop_scan(M)
        assert val == ref_val
        assert np.array_equal(x, ref_x)


def test_cop_refute_runs_no_restarts_up_to_n12(monkeypatch):
    def no_restarts(*_args, **_kwargs):
        raise AssertionError("projected gradient called for n <= 12")

    monkeypatch.setattr(cones, "_proj_grad", no_restarts)
    rng = np.random.default_rng(3)
    for n in (2, 5, 9, 12):
        M = rng.normal(size=(n, n))
        M = (M + M.T) / 2
        ref_val, ref_x = cop_refute(M)
        assert ref_val == pytest.approx(float(ref_x @ M @ ref_x))
        for effort, seed in (("fast", 0), ("thorough", 1)):
            val, x = cop_refute(M, effort=effort, seed=seed)
            assert val == ref_val and np.array_equal(x, ref_x)


def test_cop_refute_restarts_above_n12(monkeypatch):
    calls = []
    real = cones._proj_grad

    def counting(M, x0, iters=200):
        calls.append(M.shape[0])
        return real(M, x0, iters)

    monkeypatch.setattr(cones, "_proj_grad", counting)
    rng = np.random.default_rng(4)
    M = rng.normal(size=(13, 13))
    M = (M + M.T) / 2
    val, x = cop_refute(M, effort="fast")
    assert calls == [13] * Effort.of("fast").refute_starts
    assert val == pytest.approx(float(x @ M @ x))
    assert np.min(x) >= 0 and np.sum(x) == pytest.approx(1.0)


def test_restarts_never_beat_the_scan():
    # a negative simplex minimum sits on a face with M_II nonsingular, so
    # the restart search cannot find a lower value than the face scan
    rng = np.random.default_rng(5)
    for n in range(3, 10):
        for family in range(3):
            if family == 0:
                M = rng.normal(size=(n, n))
                M = (M + M.T) / 2
            elif family == 1:
                V = rng.normal(size=(n, 2))
                M = V @ V.T - 1e-3 * np.eye(n)
            else:
                M = rand_nonneg_sym(rng, n) - 0.3
            val, _ = cones._support_scan(M)
            scale = max(1.0, float(np.max(np.abs(M))))
            for _ in range(6):
                f, x = cones._proj_grad(M, rng.dirichlet(np.ones(n)))
                assert f >= val - 1e-12 * scale


def _non_copositive_inputs(seed):
    """Seeded inputs, n = 3-8, whose simplex minimum is clearly negative."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < 18:
        n = 3 + len(out) % 6
        kind = len(out) // 6
        if kind == 0:
            M = rng.normal(size=(n, n))
            M = (M + M.T) / 2
            np.fill_diagonal(M, np.abs(np.diag(M)))
        elif kind == 1:
            V = rng.normal(size=(n, 2))
            M = V @ V.T - 0.2 * np.eye(n)
        else:
            M = rand_nonneg_sym(rng, n)
            i, j = rng.choice(n, 2, replace=False)
            M[i, j] = M[j, i] = -2.0 * np.sqrt(M[i, i] * M[j, j]) - 0.5
        val, _ = cop_refute(M)
        if val < -0.05 * max(1.0, float(np.max(np.abs(M)))):
            out.append(M)
    return out


def test_cop_refutation_is_invariant_under_symmetries():
    rng = np.random.default_rng(19)
    for M in _non_copositive_inputs(23):
        n = M.shape[0]
        P = np.eye(n)[rng.permutation(n)]
        D = np.diag(rng.uniform(0.5, 2.0, n))
        variants = [M, P @ M @ P.T, D @ M @ D]
        variants += [s * M for s in (1e-3, 37.0, 1e3)]
        for Mv in variants:
            val, x = cop_refute(Mv)
            assert val < 0
            assert np.min(x) >= 0 and float(x @ Mv @ x) < 0
            v = is_cop(Mv)
            assert v.status is Verdict.NON_MEMBER
            y = v.certificate["vector"]
            assert np.min(y) >= 0 and float(y @ Mv @ y) < 0
