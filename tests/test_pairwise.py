import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conekit import certificates, cones, optim
from conekit.cones import Verdict, berman_matrix, horn_matrix
from conekit.graphs import catalog
from conekit import pairwise as pw
from conekit.linalg import Tolerance, is_psd
from conekit.pairwise import (
    DiagonalMismatch,
    PreconditionError,
    copcp_form_value,
    form_value_batch,
    is_cldui_plus,
    is_copcp,
    is_pdec,
    is_pdnn,
    lift_check,
    necessary_filters,
    pair_form,
    pair_inner,
    pcp_checks,
    pdec_sufficient,
    spn_lift_check,
    verify_pair,
)


def ring(M):
    M = np.asarray(M)
    return M - np.diag(np.diag(M))


def random_hermitian(rng, n):
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (B + B.conj().T) / 2


# ---------------------------------------------------------------------------
# validation


def test_pair_form_accepts_matching_diagonals():
    A = np.array([[1.0, 2.0], [0.5, 3.0]])
    B = np.array([[1.0, 1j], [-1j, 3.0]])
    p = pair_form(A, B)
    assert p.n == 2
    assert np.allclose(p.A, A)
    assert np.allclose(p.B, B)


def test_pair_form_rejects_diagonal_mismatch():
    with pytest.raises(DiagonalMismatch):
        pair_form(np.eye(2), 2 * np.eye(2))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
def test_pair_form_accepts_atoms_at_any_scale(scale):
    # diag(A) and diag(B) of an atom agree only up to rounding, which grows
    # with the entries
    rng = np.random.default_rng(31)
    for _ in range(100):
        v = rng.normal(size=5) + 1j * rng.normal(size=5)
        w = rng.normal(size=5) + 1j * rng.normal(size=5)
        A, B = pw._atom(v, w)
        pair_form(scale * A, scale * B)


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3, 1e6])
def test_pair_form_rejects_relative_diagonal_mismatch(scale):
    A = scale * np.ones((3, 3))
    B = A.copy()
    B[1, 1] *= 1 + 1e-6
    with pytest.raises(DiagonalMismatch):
        pair_form(A, B)


def test_pair_form_rejects_complex_diagonal():
    B = np.array([[1j, 0.0], [0.0, 0.0]])
    with pytest.raises((DiagonalMismatch, ValueError)):
        pair_form(np.zeros((2, 2)), B)


def test_pair_form_checks_the_diagonal_of_b_before_hermitizing():
    # above the relative slack the imaginary part is a diagonal mismatch,
    # not a non-hermitian matrix; below it, it is rounding and dropped
    B = np.eye(3, dtype=complex)
    B[0, 0] += 1e-6j
    with pytest.raises(DiagonalMismatch, match="diagonal of B must be real"):
        pair_form(np.eye(3), B)
    B[0, 0] = 1 + 1e-13j
    p = pair_form(np.eye(3), B)
    assert np.isrealobj(p.B) and np.array_equal(p.B, np.eye(3))


def test_pair_form_rejects_nonhermitian_b():
    with pytest.raises(ValueError):
        pair_form(np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_pair_form_rejects_shape_mismatch():
    with pytest.raises((DiagonalMismatch, ValueError)):
        pair_form(np.eye(2), np.eye(3))


def test_pair_form_rejects_complex_a():
    with pytest.raises(ValueError):
        pair_form(1j * np.ones((2, 2)), np.eye(2))


# ---------------------------------------------------------------------------
# the form


def test_form_value_on_unit_vectors_reads_entries_of_a():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4))
    B = random_hermitian(rng, 4)
    d = np.real(np.diag(B))
    A[np.diag_indices(4)] = d
    p = pair_form(A, B)
    for i in range(4):
        for j in range(4):
            ei = np.zeros(4)
            ej = np.zeros(4)
            ei[i] = 1.0
            ej[j] = 1.0
            assert copcp_form_value(p, ei, ej) == pytest.approx(A[i, j])


def test_form_value_reflection_identity():
    # for the pair (N without diagonal, -(N without diagonal)) the form is
    # sum_{i<j} N_ij |v_i conj(w_j) - v_j conj(w_i)|^2
    rng = np.random.default_rng(1)
    n = 6
    N = np.abs(rng.normal(size=(n, n)))
    N = ring((N + N.T) / 2)
    p = pair_form(N, -N)
    for trial in range(10):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        w = rng.normal(size=n) + 1j * rng.normal(size=n)
        ref = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                ref += N[i, j] * abs(v[i] * np.conj(w[j]) - v[j] * np.conj(w[i])) ** 2
        assert copcp_form_value(p, v, w) == pytest.approx(ref, abs=1e-9 * (1 + ref))


def test_form_value_batch_matches_scalar():
    rng = np.random.default_rng(2)
    n = 5
    A = np.abs(rng.normal(size=(n, n)))
    B = random_hermitian(rng, n)
    A[np.diag_indices(n)] = np.real(np.diag(B))
    p = pair_form(A, B)
    V = rng.normal(size=(20, n)) + 1j * rng.normal(size=(20, n))
    W = rng.normal(size=(20, n)) + 1j * rng.normal(size=(20, n))
    vals = form_value_batch(p, V, W)
    for k in range(20):
        assert vals[k] == pytest.approx(copcp_form_value(p, V[k], W[k]), abs=1e-8)


def test_pair_inner_product():
    A1 = np.array([[1.0, 2.0], [2.0, 1.0]])
    B1 = np.array([[1.0, 3.0], [3.0, 1.0]])
    A2 = np.array([[2.0, 1.0], [1.0, 0.0]])
    B2 = np.array([[2.0, -1.0], [-1.0, 0.0]])
    p = pair_form(A1, B1)
    q = pair_form(A2, B2)
    # <A1,A2> + <ring B1, ring B2> = (2+2+2+0) + (-3-3)
    assert pair_inner(p, q) == pytest.approx(0.0)


# ---------------------------------------------------------------------------
# necessary filters


def test_filters_pass_on_nonnegative_psd_pair():
    rng = np.random.default_rng(3)
    G = rng.normal(size=(4, 4))
    B = G @ G.T + np.eye(4)
    A = np.abs(rng.normal(size=(4, 4))) + np.eye(4)
    A[np.diag_indices(4)] = np.diag(B)
    rep = necessary_filters(pair_form(A, B))
    assert rep["A_entrywise"][0] == "PASS"
    assert rep["entry_inequality"][0] == "PASS"
    assert rep["symmetrized_cop"][0] in ("PASS", "UNKNOWN")


def test_symmetrized_filter_refutes_without_solving(monkeypatch):
    def no_solve(*_args, **_kwargs):
        raise AssertionError("necessary_filters started an SDP solve")

    for mod in (cones, optim, pw):
        monkeypatch.setattr(mod, "solve_sdp", no_solve)
    rng = np.random.default_rng(6)
    tags = set()
    for n in (3, 5, 8, 13):
        for trial in range(4):
            A = np.abs(rng.normal(size=(n, n)))
            B = random_hermitian(rng, n) if trial else np.zeros((n, n))
            B[np.diag_indices(n)] = np.diag(A)
            tag, info = necessary_filters(pair_form(A, B),
                                          effort="fast")["symmetrized_cop"]
            tags.add((n <= 12, tag))
            S = A + A.T + 2 * np.real(ring(B))
            if tag == "FAIL":
                x = info["vector"]
                assert np.min(x) >= 0 and float(x @ S @ x) == info["value"] < 0
            else:
                assert tag == ("PASS" if n <= 12 else "UNKNOWN")
                assert info["refuter_min"] >= -1e-7 * np.max(np.abs(S))
    assert tags == {(True, "PASS"), (True, "FAIL"), (False, "UNKNOWN"),
                    (False, "FAIL")}


def test_filters_fail_on_negative_entry():
    A = np.array([[1.0, -0.5], [0.2, 1.0]])
    B = np.eye(2)
    rep = necessary_filters(pair_form(A, B))
    assert rep["A_entrywise"][0] == "FAIL"
    assert rep["A_entrywise"][1]["entry"] == (0, 1)


def test_filters_fail_on_entry_inequality():
    # A_ii A_jj = 1, A_ij = 0: bound is 1, |B_12| = 2 violates it
    A = np.eye(2)
    B = np.array([[1.0, 2.0], [2.0, 1.0]])
    rep = necessary_filters(pair_form(A, B))
    assert rep["entry_inequality"][0] == "FAIL"


def test_entry_conditions_match_the_entry_loops():
    # the per-entry loops the array expressions replaced, kept as reference:
    # same arithmetic, so equal results, ties going to the first (i, j)
    def loop_entry_inequality(A, B, n):
        worst_pair, worst_val = None, np.inf
        for i in range(n):
            for j in range(n):
                g = (np.sqrt(max(A[i, i] * A[j, j], 0.0))
                     + np.sqrt(max(A[i, j] * A[j, i], 0.0)) - abs(B[i, j]))
                if i != j and g < worst_val:
                    worst_val, worst_pair = g, (i, j)
        return worst_pair, worst_val

    def loop_pdnn_entries(A, B, n, bound):
        return all(A[i, j] * A[j, i] - abs(B[i, j]) ** 2 >= bound
                   for i in range(n) for j in range(n) if i != j)

    def loop_pdec_sufficient(A, B, n):
        return n > 1 and float(np.min(A)) >= 0 and all(
            np.sqrt(max(A[i, i] * A[j, j], 0.0)) / (n - 1)
            + np.sqrt(max(A[i, j] * A[j, i], 0.0)) - abs(B[i, j]) >= -1e-12
            for i in range(n) for j in range(n) if i != j)

    rng = np.random.default_rng(8)
    tol = Tolerance()
    for k in range(60):
        n = 2 + k % 5
        A = np.abs(rng.normal(size=(n, n)))
        if k % 3 == 0:
            A = A + A.T  # symmetric: every entry ties with its mirror
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = G @ G.conj().T * 0.3 if k % 2 else random_hermitian(rng, n)
        d = np.abs(np.diag(B).real) + 0.5
        np.fill_diagonal(A, d)
        np.fill_diagonal(B, d)
        s = 10.0 ** rng.uniform(-3, 3)
        p = pair_form(s * A, s * B)
        tag, info = necessary_filters(p, tol=tol)["entry_inequality"]
        pair, val = loop_entry_inequality(p.A, p.B, n)
        assert info["margin"] == val
        assert (tag == "FAIL") == (val < -tol.feas_tol * p.scale())
        if tag == "FAIL":
            assert info["entry"] == pair
        bound = -tol.feas_tol * p.scale() ** 2
        assert is_pdnn(p, tol) == (is_psd(p.B, tol)
                                   and loop_pdnn_entries(p.A, p.B, n, bound))
        assert pdec_sufficient(p) == loop_pdec_sufficient(p.A, p.B, n)


# ---------------------------------------------------------------------------
# COPCP membership


def test_reflection_pair_is_copcp_member():
    n = 5
    ringJ = ring(np.ones((n, n)))
    p = pair_form(ringJ, -ringJ)
    v = is_copcp(p)
    assert v.status is Verdict.MEMBER
    assert verify_pair(p, v)


def test_negative_entry_pair_refuted_with_unit_vectors():
    A = np.array([[1.0, 1.0, -0.3], [0.5, 1.0, 1.0], [1.0, 1.0, 1.0]])
    B = np.eye(3)
    p = pair_form(A, B)
    v = is_copcp(p)
    assert v.status is Verdict.NON_MEMBER
    val = copcp_form_value(p, v.certificate["v"], v.certificate["w"])
    assert val < 0
    assert val == pytest.approx(-0.3)


def test_diagonal_b_pair_tracks_psdness_of_b():
    rng = np.random.default_rng(4)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Bpsd = G @ G.conj().T
    p = pair_form(np.diag(np.real(np.diag(Bpsd))), Bpsd)
    assert is_copcp(p).status is Verdict.MEMBER
    Bneg = random_hermitian(rng, 4)
    Bneg = Bneg - np.diag(np.diag(Bneg)) + 0.2 * np.diag(np.abs(np.diag(Bneg)))
    assert np.linalg.eigvalsh(Bneg)[0] < -1e-3
    p2 = pair_form(np.diag(np.real(np.diag(Bneg))), Bneg)
    v2 = is_copcp(p2, seed=5)
    assert v2.status is Verdict.NON_MEMBER
    assert copcp_form_value(p2, v2.certificate["v"], v2.certificate["w"]) < 0


def test_horn_pair_member_through_lifting():
    H = horn_matrix()
    n = 5
    J = np.ones((n, n))
    p = pair_form(J, H - ring(J))
    v = is_copcp(p)
    assert v.status is Verdict.MEMBER
    assert v.certificate.get("route") == "lift"
    assert verify_pair(p, v)


def test_scaled_horn_pair_refuted_beyond_copositivity():
    # H - 1.1 * ring(J) symmetrizes to a non-copositive matrix
    H = horn_matrix()
    n = 5
    J = np.ones((n, n))
    p = pair_form(J, H - 1.4 * ring(J))
    v = is_copcp(p, seed=2)
    assert v.status is Verdict.NON_MEMBER
    assert copcp_form_value(p, v.certificate["v"], v.certificate["w"]) < 0


def test_member_soundness_by_sampling():
    rng = np.random.default_rng(6)
    n = 5
    A = np.abs(rng.normal(size=(n, n)))
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    B = G @ G.conj().T / n
    A[np.diag_indices(n)] = np.real(np.diag(B))
    p = pair_form(A, B)
    v = is_copcp(p)
    assert v.status is Verdict.MEMBER
    V = rng.normal(size=(10000, n)) + 1j * rng.normal(size=(10000, n))
    W = rng.normal(size=(10000, n)) + 1j * rng.normal(size=(10000, n))
    assert form_value_batch(p, V, W).min() > -1e-7 * p.scale()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_equal_pair_iff_entrywise_nonnegative(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    M = rng.normal(size=(n, n))
    A = (M + M.T) / 2
    if seed % 2 == 0:
        A = np.abs(A)
    p = pair_form(A, A)
    v = is_copcp(p, effort="fast", seed=seed % 97)
    if np.min(A) >= 0:
        assert v.status is Verdict.MEMBER
    else:
        assert v.status is Verdict.NON_MEMBER


# ---------------------------------------------------------------------------
# copositive lifting


def test_lift_check_horn_with_flat_cushion():
    H = horn_matrix()
    N = np.diag(np.diag(H)) + ring(np.ones((5, 5)))
    v = lift_check(H, N)
    assert v.status is Verdict.MEMBER


def test_lift_check_horn_with_positive_part():
    H = horn_matrix()
    v = lift_check(H, np.clip(H, 0.0, None))
    assert v.status is Verdict.MEMBER


def test_lift_check_refutes_noncopositive_input():
    A = np.array([[1.0, -2.0], [-2.0, 1.0]])
    N = np.array([[1.0, 0.0], [0.0, 1.0]])
    v = lift_check(A, N)
    assert v.status is Verdict.NON_MEMBER
    pr = pair_form(N, A - ring(N))
    assert copcp_form_value(pr, v.certificate["v"], v.certificate["w"]) < 0


def test_copcp_lift_route_beyond_the_hierarchy_size_returns_a_verdict():
    # the Paley(17) pair has B off-diagonal nonpositive, so it reaches the
    # lift route, whose copositivity test can run no hierarchy level at n = 17
    n = 17
    p = pair_form(np.ones((n, n)), np.eye(n) - 1.4 * catalog("paley17").adjacency)
    v = is_copcp(p, effort="fast")
    assert v.status is Verdict.UNKNOWN
    assert certificates.check(v, p)["ok"]


def test_verify_pair_checks_the_nested_cop_gram():
    H = horn_matrix()
    N = np.diag(np.diag(H)) + ring(np.ones((5, 5)))
    pr = pair_form(N, H - ring(N))
    v = lift_check(H, N)
    assert v.certificate["route"] == "lift" and verify_pair(pr, v)
    cop = v.certificate["cop"]
    gram = cop.certificate["gram"]
    blocks = [dict(b) for b in gram["blocks"]]
    blocks[0]["G"] = blocks[0]["G"] + 0.1 * np.eye(len(blocks[0]["G"]))
    for forged_gram in ({**gram, "blocks": blocks}, None):
        forged = dataclasses.replace(
            cop, certificate={**cop.certificate, "gram": forged_gram}
        )
        assert not verify_pair(
            pr, dataclasses.replace(v, certificate={**v.certificate, "cop": forged})
        )


def test_lift_check_preconditions():
    with pytest.raises(PreconditionError):
        lift_check(-np.eye(3), np.eye(3))
    H = horn_matrix()
    with pytest.raises(PreconditionError):
        # N - H has negative entries when N is the bare diagonal
        lift_check(H, np.diag(np.diag(H)))
    with pytest.raises(PreconditionError):
        lift_check(np.eye(2), np.array([[1.0, -0.5], [-0.5, 1.0]]))


# ---------------------------------------------------------------------------
# PDEC


def test_reflection_pair_is_pdec_with_zero_psd_part():
    rng = np.random.default_rng(8)
    N = np.abs(rng.normal(size=(6, 6)))
    N = ring((N + N.T) / 2)
    p = pair_form(N, -N)
    v = is_pdec(p)
    assert v.status is Verdict.MEMBER
    assert np.max(np.abs(v.certificate["B1"])) == 0.0
    assert verify_pair(p, v)


def test_pdec_rejects_negative_a():
    A = np.array([[1.0, -0.1], [0.3, 1.0]])
    v = is_pdec(pair_form(A, np.eye(2)))
    assert v.status is Verdict.NON_MEMBER
    assert v.certificate["reason"] == "A_entrywise"


def test_pdec_forced_entry_contradiction():
    # zero diagonal forces the psd part to vanish at row 0, so the bound
    # |B_01| <= sqrt(A_01 A_10) must hold directly -- and fails here
    A = np.array([[0.0, 0.5], [0.5, 1.0]])
    B = np.array([[0.0, 1.0], [1.0, 1.0]])
    v = is_pdec(pair_form(A, B))
    assert v.status is Verdict.NON_MEMBER
    assert v.certificate["reason"] == "forced_entry"


def test_pdec_member_with_psd_b():
    rng = np.random.default_rng(9)
    G = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    B = G @ G.conj().T
    A = np.abs(rng.normal(size=(5, 5)))
    A[np.diag_indices(5)] = np.real(np.diag(B))
    p = pair_form(A, B)
    v = is_pdec(p)
    assert v.status is Verdict.MEMBER
    B1, B2 = v.certificate["B1"], v.certificate["B2"]
    assert np.allclose(B1 + B2, B, atol=1e-7)
    assert np.linalg.eigvalsh(B1)[0] > -1e-7
    assert verify_pair(p, v)


def test_pdec_wheel_family_threshold_matches_sigma_pentagon():
    # membership of (J, I - t adj) flips exactly at sigma of the graph
    G = catalog("pentagon")
    Adj = G.adjacency.astype(float)
    n = G.n
    J, I = np.ones((n, n)), np.eye(n)
    sig = (5 + np.sqrt(5)) / 4
    below = is_pdec(pair_form(J, I - (sig - 0.01) * Adj))
    above = is_pdec(pair_form(J, I - (sig + 0.01) * Adj))
    assert below.status is Verdict.MEMBER
    assert above.status is Verdict.NON_MEMBER
    # a member is checked from B1/B2, so it keeps no solver objects; the
    # Farkas refutation is checked against the problem and solution it keeps
    assert not {"problem", "solution"} & below.certificate.keys()
    assert below.certificate["solver_stats"]["iters"] > 0
    assert verify_pair(pair_form(J, I - (sig - 0.01) * Adj), below)
    assert above.certificate["reason"] == "infeasible"
    assert {"problem", "solution"} <= above.certificate.keys()
    assert verify_pair(pair_form(J, I - (sig + 0.01) * Adj), above)


def test_pdec_passes_its_tolerance_to_the_solver(monkeypatch):
    seen = []
    solve = pw.solve_sdp

    def spy(prob, tol=None, *args, **kwargs):
        seen.append(tol)
        return solve(prob, tol, *args, **kwargs)

    monkeypatch.setattr(pw, "solve_sdp", spy)
    G = catalog("pentagon")
    J, I = np.ones((5, 5)), np.eye(5)
    tol = Tolerance(eig_tol=1e-7, feas_tol=1e-6)
    # at t = 1.7 the clip split's B1 = I - 0.7 adj is not psd, and t is
    # below sigma = 1.809, so only the SDP decides the pair
    v = is_pdec(pair_form(J, I - 1.7 * G.adjacency), tol=tol)
    assert v.status is Verdict.MEMBER
    assert seen and all(t is tol for t in seen)


def test_pdec_petersen_family_threshold():
    G = catalog("petersen")
    Adj = G.adjacency.astype(float)
    n = G.n
    J, I = np.ones((n, n)), np.eye(n)
    member = is_pdec(pair_form(J, I - (5 / 3) * Adj))
    refused = is_pdec(pair_form(J, I - 1.9 * Adj))
    assert member.status is Verdict.MEMBER
    assert member.certificate["solver_stats"]["iters"] > 0
    assert refused.status is Verdict.NON_MEMBER
    assert verify_pair(pair_form(J, I - 1.9 * Adj), refused)


def test_pdec_sufficient_condition():
    # boundary case with equality at n = 2
    p = pair_form(np.ones((2, 2)), np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert pdec_sufficient(p)
    assert is_pdec(p).status is Verdict.MEMBER
    # slack case
    q = pair_form(np.ones((3, 3)), np.ones((3, 3)))
    assert pdec_sufficient(q)
    # failing the sufficient test does not refute membership
    B5 = np.eye(5)
    B5[0, 1] = B5[1, 0] = 0.3
    r = pair_form(np.eye(5), B5)
    assert not pdec_sufficient(r)
    assert is_pdec(r).status is Verdict.MEMBER


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pdec_sufficient_implies_member(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    A = np.abs(rng.normal(size=(n, n))) + 0.5
    bound = np.sqrt(np.outer(np.diag(A), np.diag(A))) / (n - 1) + np.sqrt(A * A.T)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n, n)))
    B = 0.9 * np.minimum(bound, bound.T) * phase
    B = (B + B.conj().T) / 2
    B = B - np.diag(np.diag(B)) + np.diag(np.diag(A))
    p = pair_form(A, B)
    if pdec_sufficient(p):
        assert is_pdec(p).status is Verdict.MEMBER


def _cldui_plus_pair(rng, n, scale=1.0):
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    B = G @ G.conj().T / n
    A = np.abs(rng.normal(size=(n, n)))
    A[np.diag_indices(n)] = np.real(np.diag(B))
    return scale * A, scale * B


def _sufficient_pair(rng, n, scale=1.0):
    """A pair with pdec_sufficient(pair) and B not psd."""
    A = np.abs(rng.normal(size=(n, n))) + 0.5
    bound = np.sqrt(np.outer(np.diag(A), np.diag(A))) / (n - 1) + np.sqrt(A * A.T)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n, n)))
    B = 0.9 * bound * phase
    B = np.triu(B, 1) + np.triu(B, 1).conj().T + np.diag(np.diag(A))
    return scale * A, scale * B


def _pdec_route(v):
    return v.certificate.get("split", "sdp" if "solver_stats" in v.certificate
                             else v.certificate.get("reason"))


@pytest.mark.parametrize("n", [2, 5, 12, 24])
def test_pdec_splits_certify_cldui_plus_and_sufficient_pairs(n, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("the splits should decide these pairs")

    monkeypatch.setattr(pw, "solve_sdp", no_solve)
    rng = np.random.default_rng([17, n])
    for _ in range(3):
        p = pair_form(*_cldui_plus_pair(rng, n))
        assert is_cldui_plus(p)
        v = is_pdec(p)
        assert v.status is Verdict.MEMBER and v.certificate["split"] == "psd"
        assert certificates.check(v, p)["ok"]
        q = pair_form(*_sufficient_pair(rng, n))
        assert pdec_sufficient(q) and not is_psd(q.B)
        v = is_pdec(q)
        assert v.status is Verdict.MEMBER and v.certificate["split"] == "clip"
        assert v.certificate["margin"] <= 0  # diag(B2) = 0
        assert certificates.check(v, q)["ok"]


def test_pdec_route_is_invariant_under_scaling_and_relabelling():
    rng = np.random.default_rng(23)
    G = catalog("pentagon")
    J, I = np.ones((5, 5)), np.eye(5)
    pairs = [_cldui_plus_pair(rng, 5), _sufficient_pair(rng, 5),
             (J, I - 1.7 * G.adjacency), (J, I - 1.9 * G.adjacency)]
    perm = rng.permutation(5)
    routes = []
    for A, B in pairs:
        seen = set()
        for s in (1e-3, 1.0, 1e3):
            for P in (np.arange(5), perm):
                p = pair_form(s * A[np.ix_(P, P)], s * B[np.ix_(P, P)])
                v = is_pdec(p)
                assert certificates.check(v, p)["ok"]
                seen.add((v.status, _pdec_route(v)))
        assert len(seen) == 1, seen
        routes.append(seen.pop())
    assert routes == [(Verdict.MEMBER, "psd"), (Verdict.MEMBER, "clip"),
                      (Verdict.MEMBER, "sdp"), (Verdict.NON_MEMBER, "infeasible")]


def test_pdec_psd_split_honours_the_eigenvalue_tolerance(monkeypatch):
    # diagonal A bounds B2 to zero off the diagonal, so only a psd B passes
    rng = np.random.default_rng(29)
    V = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    B = V @ V.conj().T  # rank 3: lambda_min(B) = 0
    p0 = pair_form(np.diag(np.real(np.diag(B))), B)
    eps = 1e-6 * p0.scale()
    B = B - eps * np.eye(5)
    p = pair_form(np.diag(np.real(np.diag(B))), B)
    assert np.isclose(np.linalg.eigvalsh(p.B)[0], -1e-6 * p.scale(), rtol=1e-3)

    loose = is_pdec(p, tol=Tolerance(eig_tol=1e-5))
    assert loose.status is Verdict.MEMBER and loose.certificate["split"] == "psd"
    assert certificates.check(loose, p, Tolerance(eig_tol=1e-5))["ok"]

    calls = []
    solve = pw.solve_sdp

    def spy(*args, **kwargs):
        calls.append(1)
        return solve(*args, **kwargs)

    monkeypatch.setattr(pw, "solve_sdp", spy)
    strict = is_pdec(p)
    assert calls and "split" not in strict.certificate


def test_pdec_splits_agree_with_the_sdp_route():
    # every split verdict against the SDP route alone, on pairs around the
    # split boundaries: psd B, clipped entries, and graph pairs (J, I - t adj)
    rng = np.random.default_rng(41)
    graphs = [catalog(name).adjacency.astype(float)
              for name in ("pentagon", "petersen")]
    split_members = 0
    for k in range(36):
        n = int(rng.integers(2, 7))
        s = 10.0 ** rng.uniform(-3, 3)
        if k % 3 == 0:
            A, B = _cldui_plus_pair(rng, n, s)
            B = B - rng.uniform(0, 0.2) * np.min(np.real(np.diag(B))) * np.eye(n)
            A[np.diag_indices(n)] = np.real(np.diag(B))
        elif k % 3 == 1:
            A, B = _sufficient_pair(rng, n, s)
            B = B * rng.uniform(1.0, 2.5)
            A[np.diag_indices(n)] = np.real(np.diag(B))
        else:
            Adj = graphs[k % 2]
            m = len(Adj)
            t = rng.uniform(1.0, 2.2)
            A, B = s * np.ones((m, m)), s * (np.eye(m) - t * Adj)
        p = pair_form(A, B)
        v = is_pdec(p)
        if "split" not in v.certificate:
            continue
        split_members += 1
        assert certificates.check(v, p)["ok"]
        assert pw._pdec_sdp(p, Tolerance()).status is not Verdict.NON_MEMBER
    assert split_members >= 12


# ---------------------------------------------------------------------------
# the psd+nonneg lifting


def test_spn_lift_horn_is_refuted():
    H = horn_matrix()
    N = np.diag(np.diag(H)) + ring(np.ones((5, 5)))
    v = spn_lift_check(H, N)
    assert v.status is Verdict.NON_MEMBER


def test_verify_pair_checks_the_nested_spn_witness():
    H = horn_matrix()
    N = np.diag(np.diag(H)) + ring(np.ones((5, 5)))
    pr = pair_form(N, H - ring(N))
    v = spn_lift_check(H, N)
    assert verify_pair(pr, v)
    spn = v.certificate["spn"]
    X = spn.certificate["X"] - 0.5 * np.eye(5)  # still pairs negatively
    assert np.sum(X * H) < 0 and np.linalg.eigvalsh(X)[0] < 0
    forged = dataclasses.replace(spn, certificate={**spn.certificate, "X": X})
    assert not verify_pair(
        pr, dataclasses.replace(v, certificate={**v.certificate, "spn": forged})
    )


def test_spn_lift_all_ones_member():
    J = np.ones((4, 4))
    v = spn_lift_check(J, J)
    assert v.status is Verdict.MEMBER
    assert verify_pair(pair_form(J, J - ring(J)), v)


def test_spn_lift_psd_shortcut():
    rng = np.random.default_rng(10)
    M = rng.normal(size=(6, 3))
    A = M @ M.T
    v = spn_lift_check(A, np.diag(np.diag(A)))
    assert v.status is Verdict.MEMBER
    assert v.certificate["route"] == "psd-shortcut"
    assert verify_pair(pair_form(np.diag(np.diag(A)), A), v)


def test_spn_lift_entrywise_shortcut():
    A = np.array([[1.0, 3.0], [3.0, 1.0]])  # entrywise nonneg, not psd
    N = np.array([[1.0, 1.7], [1.7, 1.0]])  # fails the main hypothesis (needs 2.0)
    v = spn_lift_check(A, N)
    assert v.status is Verdict.MEMBER
    assert v.certificate["route"] == "ewp-shortcut"
    assert verify_pair(pair_form(N, A - ring(N)), v)


def test_spn_lift_preconditions():
    H = horn_matrix()
    with pytest.raises(PreconditionError):
        spn_lift_check(H, np.diag(np.diag(H)))
    with pytest.raises(PreconditionError):
        spn_lift_check(np.eye(2), 2 * np.eye(2))


# ---------------------------------------------------------------------------
# entrywise cones


def test_pdnn_and_cldui_plus():
    rng = np.random.default_rng(11)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = G @ G.conj().T
    d = np.real(np.diag(B))
    big = np.outer(np.sqrt(d), np.sqrt(d)) + np.abs(B)
    A = np.real(big)
    A[np.diag_indices(4)] = d
    p = pair_form(A, B)
    assert is_cldui_plus(p)
    assert is_pdnn(p)
    # break the entry bound but keep cldui+
    A2 = A.copy()
    A2[0, 1] = 0.0
    p2 = pair_form(A2, B)
    assert is_cldui_plus(p2)
    if abs(B[0, 1]) > 1e-6:
        assert not is_pdnn(p2)
    # break psd-ness
    p3 = pair_form(np.eye(2), np.array([[1.0, 1.5], [1.5, 1.0]]))
    assert not is_cldui_plus(p3)
    assert not is_pdnn(p3)


def test_cldui_plus_implies_pdec_and_copcp():
    rng = np.random.default_rng(12)
    for trial in range(5):
        G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        B = G @ G.conj().T
        A = np.abs(rng.normal(size=(4, 4)))
        A[np.diag_indices(4)] = np.real(np.diag(B))
        p = pair_form(A, B)
        assert is_cldui_plus(p)
        assert is_pdec(p).status is Verdict.MEMBER
        assert is_copcp(p, effort="fast").status is Verdict.MEMBER


# ---------------------------------------------------------------------------
# PCP


def test_pcp_single_atom():
    v = np.array([1.0, 2.0, 0.5])
    w = np.array([0.3, 1.0, 1.0]) * np.exp(1j * np.array([0.2, -0.5, 1.3]))
    Aat = np.outer(np.abs(v) ** 2, np.abs(w) ** 2)
    z = v * w
    Bat = np.outer(z, z.conj())
    p = pair_form(Aat, Bat)
    out = pcp_checks(p, seed=3)
    assert out.status is Verdict.MEMBER
    assert verify_pair(p, out)


def test_pcp_all_ones():
    J = np.ones((4, 4))
    out = pcp_checks(pair_form(J, J))
    assert out.status is Verdict.MEMBER


def test_pcp_two_atom_mixture():
    rng = np.random.default_rng(13)
    n = 3
    SA = np.zeros((n, n))
    SB = np.zeros((n, n), dtype=complex)
    for lam in (0.7, 1.6):
        v = np.abs(rng.normal(size=n))
        w = np.abs(rng.normal(size=n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        SA += lam * np.outer(np.abs(v) ** 2, np.abs(w) ** 2)
        z = v * w
        SB += lam * np.outer(z, z.conj())
    SB = SB - np.diag(np.diag(SB)) + np.diag(np.diag(SA))
    p = pair_form(SA, SB)
    out = pcp_checks(p, seed=1)
    assert out.status in (Verdict.MEMBER, Verdict.UNKNOWN)
    if out.status is Verdict.MEMBER:
        assert verify_pair(p, out)


def test_pcp_diagonal_a_with_offdiagonal_b():
    B = np.array([[2.0, 0.7], [0.7, 1.0]])
    p = pair_form(np.diag(np.diag(B)), B)
    out = pcp_checks(p)
    assert out.status is Verdict.NON_MEMBER


def test_pcp_refutes_inside_the_pdnn_band():
    # is_pdnn admits A_ij A_ji - |B_ij|^2 down to -feas_tol * scale^2, so
    # the schur-pair and witness routes still refute pairs it lets through
    for A, B, reason in (
        (np.diag([2.0, 1.0]), [[2.0, 1e-4], [1e-4, 1.0]], "schur-pair"),
        ([[1.0, 0.5 - 5e-7], [0.5 - 5e-7, 1.0]], [[1.0, 0.5], [0.5, 1.0]],
         "witness"),
    ):
        p = pair_form(A, B)
        assert is_pdnn(p)
        out = pcp_checks(p)
        assert out.status is Verdict.NON_MEMBER
        assert out.certificate["reason"] == reason
        assert verify_pair(p, out)


def test_pcp_equal_pair_delegates_to_cp():
    Bm = berman_matrix().astype(float)
    p = pair_form(Bm, Bm)
    out = pcp_checks(p)
    assert out.status is Verdict.NON_MEMBER
    assert verify_pair(p, out)
    rng = np.random.default_rng(14)
    F = np.abs(rng.normal(size=(4, 6)))
    C = F @ F.T
    p2 = pair_form(C, C)
    out2 = pcp_checks(p2)
    assert out2.status is Verdict.MEMBER


def test_pcp_member_implies_chain():
    v = np.array([0.5, 1.0, 1.5, 0.2])
    w = np.array([1.0, 0.4, 0.9, 1.1]) * np.exp(1j * np.array([0.0, 1.0, -2.0, 0.7]))
    Aat = np.outer(np.abs(v) ** 2, np.abs(w) ** 2)
    z = v * w
    Bat = np.outer(z, z.conj())
    p = pair_form(Aat, Bat)
    assert pcp_checks(p, seed=0).status is Verdict.MEMBER
    assert is_pdnn(p)
    assert is_cldui_plus(p)
    assert is_pdec(p).status is Verdict.MEMBER
    assert is_copcp(p, effort="fast").status is Verdict.MEMBER


def _pcp_pair(A, B):
    """The pair (A, B) with B's diagonal replaced by A's, which the atoms
    build only up to rounding."""
    A = np.real(A)
    return pair_form(A, ring(B) + np.diag(np.diag(A)))


def _one_atom_plus_slack(rng, n, sparse):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    w = rng.normal(size=n) + 1j * rng.normal(size=n)
    if sparse:
        v[rng.random(n) < 0.35] = 0
        w[rng.random(n) < 0.2] = 0
    A, B = pw._atom(v, w)
    N = np.abs(rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.5)
    return A + N, B


def _atoms_check_passes(p, out):
    rep = certificates.check(out, p)
    return all(rep[k] for k in ("ok", "atoms_nonneg", "atoms_A", "atoms_B"))


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 24])
def test_pcp_one_atom_plus_unit_atoms_is_member(n, scale):
    rng = np.random.default_rng([71, n])
    for sparse in (False, True):
        A, B = _one_atom_plus_slack(rng, n, sparse)
        p = _pcp_pair(A * scale, B * scale)
        out = pcp_checks(p)
        assert out.status is Verdict.MEMBER
        assert out.certificate["route"] == "atoms"
        assert _atoms_check_passes(p, out)


def test_pcp_two_by_two_pdnn_pairs_are_members():
    # every 2 x 2 pdnn pair is one atom plus unit atoms
    rng = np.random.default_rng(72)
    for _ in range(50):
        d = rng.uniform(0.1, 2.0, 2)
        b = rng.uniform(0.05, 0.95) * np.sqrt(d[0] * d[1])
        b12 = b * np.exp(1j * rng.uniform(0, 2 * np.pi))
        a12 = rng.uniform(0.05, 3.0)
        a21 = b * b / a12 * rng.uniform(1.05, 3.0)
        A = np.array([[d[0], a12], [a21, d[1]]])
        B = np.array([[d[0], b12], [np.conj(b12), d[1]]])
        p = pair_form(A, B)
        assert is_pdnn(p)
        out = pcp_checks(p)
        assert out.status is Verdict.MEMBER
        assert _atoms_check_passes(p, out)


def _dictionary_fit(pair, seed=0, tol=1e-7):
    """Reference: the greedy fit pcp_checks used before the one-atom split,
    nonnegative least squares over unit atoms, the all-ones atom, 32 random
    atoms and a derived atom per round; True when it certifies the pair."""
    from scipy.optimize import nnls

    A, B, n = pair.A, pair.B, pair.n

    def vec(A, B):
        iu = np.triu_indices(n, k=1)
        Bo = ring(np.asarray(B, dtype=complex))
        return np.concatenate([np.asarray(A, dtype=float).reshape(-1),
                               np.sqrt(2.0) * Bo[iu].real,
                               np.sqrt(2.0) * Bo[iu].imag])

    def derive(RA, RB):
        U, S, Vt = np.linalg.svd(np.clip(RA, 0.0, None))
        wB, VB = np.linalg.eigh((RB + RB.conj().T) / 2)
        zeta = VB[:, -1] * np.sqrt(max(wB[-1], 0.0))
        w = np.sqrt(np.abs(Vt[0])) * np.exp(1j * np.angle(zeta))
        return np.sqrt(np.abs(U[:, 0]) * np.sqrt(S[0])), w

    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    atoms = [(eye[i], eye[j]) for i in range(n) for j in range(n)]
    atoms.append((np.ones(n), np.ones(n)))
    atoms += [(rng.normal(size=n) + 1j * rng.normal(size=n),
               rng.normal(size=n) + 1j * rng.normal(size=n))
              for _ in range(32)]
    parts = [pw._atom(v, w) for v, w in atoms]
    cols = [vec(*q) for q in parts]
    target = vec(A, B)
    tscale = max(1.0, float(np.linalg.norm(target)))
    RA, RB, best = A, np.asarray(B, dtype=complex), np.inf
    for _ in range(50):
        parts.append(pw._atom(*derive(RA, RB)))
        cols.append(vec(*parts[-1]))
        try:
            lam, res = nnls(np.stack(cols, axis=1), target)
        except RuntimeError:  # nnls hit its iteration cap
            return False
        best = min(best, res)
        if res <= tol * tscale:
            return True
        RA = A - sum(l * q[0] for q, l in zip(parts, lam) if l > 0)
        RB = B - sum(l * q[1] for q, l in zip(parts, lam) if l > 0)
        if best > 0 and res > best * (1 - 1e-9) and len(cols) > n * n + 40:
            return False
    return False


def test_pcp_split_certifies_what_the_dictionary_fit_did():
    rng = np.random.default_rng(73)
    fitted = 0
    for t in range(60):
        n = int(rng.integers(2, 6))
        kind = t % 4
        if kind == 0:
            A, B = _one_atom_plus_slack(rng, n, sparse=bool(t % 8))
        elif kind == 1:
            A, B = pw._atom(rng.normal(size=n), rng.normal(size=n))
        elif kind == 2:
            A = np.abs(rng.normal(size=(n, n))) + 0.1 * np.eye(n)
            B = np.diag(np.diag(A))
        else:
            A, B = (sum(q) for q in zip(*(
                pw._atom(rng.normal(size=n) + 1j * rng.normal(size=n),
                         rng.normal(size=n) + 1j * rng.normal(size=n))
                for _ in range(2))))
        p = _pcp_pair(A, B)
        if _dictionary_fit(p, seed=t):
            fitted += 1
            out = pcp_checks(p)
            assert out.status is Verdict.MEMBER, (t, n, kind)
            assert _atoms_check_passes(p, out)
    assert fitted >= 30


def test_pcp_split_raises_no_warning():
    # zero entries of A, zero rows of ring B and infeasible (two-atom)
    # systems must not produce inf * 0 on the way to an unknown
    rng = np.random.default_rng(74)
    pairs = [_pcp_pair(*pw._atom(rng.normal(size=n) + 1j * rng.normal(size=n),
                                 rng.normal(size=n) + 1j * rng.normal(size=n)))
             for n in (3, 6, 24) for _ in range(2)]
    for n in (3, 6, 24):
        A = B = 0
        for _ in range(2):
            a, b = pw._atom(rng.normal(size=n) * (rng.random(n) < 0.7),
                            rng.normal(size=n) + 1j * rng.normal(size=n))
            A, B = A + a, B + b
        pairs.append(_pcp_pair(A, B))
    pairs.append(pair_form(np.eye(4), np.eye(4) + 0.0j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        verdicts = [pcp_checks(p).status for p in pairs]
    assert Verdict.MEMBER in verdicts and Verdict.UNKNOWN in verdicts


# ---------------------------------------------------------------------------
# cone chain consistency on a randomized battery


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_chain_consistency(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    kind = seed % 3
    if kind == 0:
        A = np.abs(rng.normal(size=(n, n)))
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = G @ G.conj().T / n
        A[np.diag_indices(n)] = np.real(np.diag(B))
    elif kind == 1:
        A = np.abs(rng.normal(size=(n, n)))
        B = random_hermitian(rng, n)
        d = np.abs(np.real(np.diag(B)))
        A[np.diag_indices(n)] = d
        B = B - np.diag(np.diag(B)) + np.diag(d)
    else:
        N = np.abs(rng.normal(size=(n, n)))
        N = ring((N + N.T) / 2)
        A, B = N, -N
    p = pair_form(A, B)
    pdnn = is_pdnn(p)
    cld = is_cldui_plus(p)
    dec = is_pdec(p)
    cop = is_copcp(p, effort="fast", seed=seed % 31)
    assert not (pdnn and not cld)
    assert not (cld and dec.status is Verdict.NON_MEMBER)
    assert not (dec.status is Verdict.MEMBER and cop.status is Verdict.NON_MEMBER)
    assert not (cop.status is Verdict.NON_MEMBER and dec.status is Verdict.MEMBER)
    if dec.status is Verdict.MEMBER:
        assert verify_pair(p, dec)
    if cop.status is Verdict.NON_MEMBER:
        assert copcp_form_value(p, cop.certificate["v"], cop.certificate["w"]) < 0


def test_size_limit():
    n = 30
    A = np.abs(np.random.default_rng(15).normal(size=(n, n)))
    A = (A + A.T) / 2
    p = pair_form(A, A)
    with pytest.raises(ValueError):
        is_pdec(p)
