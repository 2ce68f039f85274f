import dataclasses

import numpy as np
import pytest

from conekit import cones, graphs, pairwise, quantum
from conekit.certificates import check
from conekit.cones import ConeVerdict, Verdict, berman_matrix, horn_matrix
from conekit.linalg import off_diag
from conekit.pairwise import PairVerdict, pair_form


def forge(v, **fields):
    return dataclasses.replace(v, certificate={**v.certificate, **fields})


def test_check_dispatches_on_the_verdict_type():
    H = horn_matrix()
    assert check(cones.is_spn(H), H)["X_psd"]
    G = graphs.catalog("c5")
    assert check(graphs.sigma(G), G)["ok"]


def test_cp_witness_must_be_copositive():
    fake = ConeVerdict(Verdict.NON_MEMBER, "CP",
                       {"witness": -np.eye(4), "kind": "psd-violation"})
    rep = check(fake, np.eye(4))
    assert rep["pairing_negative"] and rep["witness_copositive"] is False
    assert rep["ok"] is False
    fake = forge(fake, kind="sign-violation")
    assert check(fake, np.eye(4))["witness_copositive"] is False
    genuine = cones.is_cp(np.diag([1.0, -1.0, 1.0]))
    assert check(genuine, np.diag([1.0, -1.0, 1.0]))["witness_copositive"]


def test_cp_cycle_scaled_witness_must_be_a_scaled_horn_form():
    P = berman_matrix()
    v = cones.is_cp(P)
    assert v.certificate["kind"] == "cycle-scaled"
    assert check(v, P)["ok"]
    W = v.certificate["witness"].copy()
    W[0, 1] -= 0.5  # more negative: still pairs negatively, no longer D H D
    W[1, 0] -= 0.5
    rep = check(forge(v, witness=W), P)
    assert rep["pairing_negative"] and rep["witness_copositive"] is False
    S = v.certificate["support"]
    rep = check(forge(v, support=S[:4] + S[:1]), P)
    assert rep["witness_copositive"] is False


def test_kr_non_member_pairing_is_recomputed_from_the_moment():
    H = horn_matrix()
    v = cones.is_kr(H, 0)
    assert check(v, H)["ok"]
    rep = check(forge(v, moment=-v.certificate["moment"]), H)
    assert rep["pairing_negative"] is False
    assert rep["normalization_positive"] is False
    rep = check(forge(v, pairing=-1.0), H)
    assert rep["pairing_negative"] is False and rep["ok"] is False


def test_dual_member_reconstruction_is_recomputed_from_y0_and_z():
    P = np.eye(5) + np.ones((5, 5))
    v = cones.in_kr_dual(P, 1)
    assert v.is_member and check(v, P)["ok"]
    rep = check(forge(v, y0=v.certificate["y0"] + 1.0), P)
    assert rep["y0_nonneg"] and rep["reconstruction"] is False
    assert rep["ok"] is False
    # z = 0 and y0 = 0 rebuild nothing; their moment blocks are all zero
    mb = v.certificate["moment_blocks"]
    zeros = {"blocks": [np.zeros_like(B) for B in mb["blocks"]],
             "singles": np.zeros_like(mb["singles"])}
    rep = check(forge(v, y0=0.0, moment=np.zeros_like(v.certificate["moment"]),
                      moment_blocks=zeros), P)
    assert rep["moment_blocks_match"] and rep["reconstruction"] is False
    assert rep["ok"] is False


@pytest.mark.parametrize("oracle, M, r", [
    (cones.is_kr, horn_matrix(), 0),
    (cones.in_kr_dual, np.eye(5) + np.ones((5, 5)), 1),
])
def test_moment_blocks_must_be_the_moments_of_z(oracle, M, r):
    v = oracle(M, r)
    assert "moment" in v.certificate and check(v, M)["ok"]
    mb = v.certificate["moment_blocks"]
    psd = {"blocks": [np.eye(len(B)) for B in mb["blocks"]],
           "singles": mb["singles"]}
    rep = check(forge(v, moment_blocks=psd), M)
    assert rep["moment_blocks_psd"] and rep.get("moment_blocks_match") is False
    assert rep["ok"] is False
    shifted = {"blocks": mb["blocks"], "singles": mb["singles"] + 1.0}
    rep = check(forge(v, moment_blocks=shifted), M)
    assert rep["moment_singles_nonneg"] and rep.get("moment_blocks_match") is False
    assert rep["ok"] is False


def test_pcp_witness_pairing_is_recomputed():
    Nw = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = PairVerdict(Verdict.NON_MEMBER, "pcp",
                    {"reason": "witness", "witness": (Nw, -Nw), "pairing": -0.8})
    refuted = pair_form(np.eye(2) + 0.1 * Nw, np.eye(2) + 0.5 * Nw)
    assert check(v, refuted)["ok"]
    rep = check(v, pair_form(np.ones((2, 2)), np.ones((2, 2))))
    assert rep["witness_copcp"] and rep["pairing_negative"] is False
    rep = check(forge(v, witness=(-Nw, Nw)), refuted)
    assert rep["witness_copcp"] is False



def test_pcp_atoms_with_a_negative_weight_fail():
    from conekit import pairwise

    rng = np.random.default_rng(4)
    n = 4
    atoms = []
    for lam in (0.2, -1.0):
        v = np.abs(rng.normal(size=n)).astype(complex)
        w = np.abs(rng.normal(size=n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))
        atoms.append((v, w, lam))
    parts = [(lam, *pairwise._atom(v, w)) for v, w, lam in atoms]
    A = sum(lam * Aat for lam, Aat, _ in parts)
    B = sum(lam * Bat for lam, _, Bat in parts)
    pair = pair_form(A, B - np.diag(np.diag(B)) + np.diag(np.diag(A)))
    assert pairwise.pcp_checks(pair).status is Verdict.NON_MEMBER
    fake = PairVerdict(Verdict.MEMBER, "pcp", {"route": "atoms", "atoms": atoms})
    rep = check(fake, pair)
    # the weighted sums rebuild the pair exactly; only the sign is wrong
    assert rep["atoms_A"] and rep["atoms_B"]
    assert rep["atoms_nonneg"] is False and rep["ok"] is False
    assert not pairwise.verify_pair(pair, fake)


def test_sigma_core_steps_are_replayed_on_the_graph():
    G = graphs.catalog("tadpole51")
    res = graphs.sigma(G)
    core = res.certificate["core"]
    assert core["steps"] == [("fold", 5, 1)]
    assert check(res, G)["core_steps"]
    # 5 is adjacent to 0, not to 1: folding it onto 0 breaks an edge
    forged = forge(res, core={**core, "steps": [("fold", 5, 0)]})
    rep = check(forged, G)
    assert rep["core_steps"] is False and rep["ok"] is False
    # the same steps from a saved JSON report, and a wrong vertex list
    saved = forge(res, core={**core, "steps": [["fold", 5, 1]]})
    assert check(saved, G)["core_steps"]
    short = forge(res, core={**core, "vertices": [0, 1, 2, 3]})
    assert check(short, G)["core_steps"] is False
    # a hub must be adjacent to every vertex still present
    W = graphs.catalog("wheel6")
    hub = graphs.sigma(W)
    assert hub.certificate["core"]["steps"] == [("hub", 5)]
    moved = forge(hub, core={**hub.certificate["core"], "steps": [("hub", 0)],
                             "vertices": [1, 2, 3, 4, 5]})
    assert check(moved, W)["core_steps"] is False


def test_sigma_value_is_pinned_by_the_dual_witness():
    # any t below sigma splits (the excess t A moves into E), so only the
    # dual X can tell a lowered value from the real one
    G = graphs.catalog("c7")
    res = graphs.sigma(G)
    assert check(res, G)["ok"]
    cert = res.certificate
    lowered = dataclasses.replace(res, value=res.value - 0.1, certificate={
        **cert, "t": cert["t"] - 0.1, "E": cert["E"] + 0.1 * G.adjacency})
    rep = check(lowered, G)
    assert rep["split_residual"] and rep["P_psd"] and rep["E_nonneg"]
    assert rep["X_value"] is False and rep["ok"] is False
    for v in (res, lowered):
        without_x = {k: x for k, x in v.certificate.items() if k != "dual_X"}
        for forged in (dataclasses.replace(v, certificate=without_x),
                       forge(v, dual_X=None)):
            rep = check(forged, G)
            assert rep["dual_X_present"] is False and rep["X_value"] is False
            assert rep["ok"] is False


# ---------------------------------------------------------------------------
# every definite verdict of every oracle passes the checker

_H = horn_matrix()
_IJ = np.eye(5) + np.ones((5, 5))
_RING_J = np.ones((5, 5)) - np.eye(5)
_PENTAGON = graphs.catalog("pentagon").adjacency.astype(float)


def _pentagon_pair(t):
    # inside the decomposable window below sigma = 1.809, outside the
    # pairwise copositive cone above t_pos = 2
    return pair_form(np.ones((5, 5)), np.eye(5) - t * _PENTAGON)


def _markov_pair(A):
    n = len(A)
    return pair_form(A, np.diag(np.diag(A)) - (np.ones((n, n)) - np.eye(n)))


def _lifted(pair):
    """(A, N) with pair = (N, A - ring N), the input of the lift checks."""
    return np.real(pair.B) + off_diag(pair.A), pair.A


_LIFT_PAIR = pair_form(np.diag(np.diag(_H)) + _RING_J, _H - _RING_J)
_FLAT_IN, _FLAT_OUT = 0.82 * np.ones((5, 5)), 0.78 * np.ones((5, 5))

# oracle: (run on an input -> (verdict, what it is checked against),
#          member input, non-member input)
_ORACLES = {
    "is_spn": (lambda M: (cones.is_spn(M), M), _IJ, _H),
    "is_kr": (lambda M: (cones.is_kr(M, 1), M), _H, -np.eye(5)),
    "in_kr_dual": (lambda M: (cones.in_kr_dual(M, 1), M), _IJ,
                   berman_matrix()),
    "is_cop": (lambda M: (cones.is_cop(M), M), _H, -np.eye(5)),
    "is_cp": (lambda M: (cones.is_cp(M), M), _IJ, berman_matrix()),
    "dicke_extendibility": (
        lambda M: (quantum.dicke_extendibility(M, 3), M), _IJ,
        berman_matrix()),
    "is_copcp": (lambda p: (pairwise.is_copcp(p), p), _LIFT_PAIR,
                 _pentagon_pair(2.2)),
    "is_pdec": (lambda p: (pairwise.is_pdec(p), p), _pentagon_pair(1.7),
                _pentagon_pair(2.2)),
    "pcp_checks": (lambda p: (pairwise.pcp_checks(p), p),
                   pair_form(_IJ, _IJ), _LIFT_PAIR),
    "lift_check": (lambda p: (pairwise.lift_check(*_lifted(p)), p),
                   _LIFT_PAIR, _pentagon_pair(2.2)),
    "spn_lift_check": (lambda p: (pairwise.spn_lift_check(*_lifted(p)), p),
                       _pentagon_pair(1.7), _LIFT_PAIR),
    "markov_choi_check": (
        lambda A: (quantum.markov_choi_check(A), _markov_pair(A)),
        _FLAT_IN, _FLAT_OUT),
}


@pytest.mark.parametrize("status", [Verdict.MEMBER, Verdict.NON_MEMBER],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("oracle", list(_ORACLES))
def test_definite_verdicts_pass_the_checker(oracle, status):
    run, member, non_member = _ORACLES[oracle]
    v, target = run(member if status is Verdict.MEMBER else non_member)
    assert v.status is status
    assert check(v, target)["ok"]


@pytest.mark.parametrize("oracle", [graphs.sigma, graphs.classify_map],
                         ids=["sigma", "classify_map"])
@pytest.mark.parametrize("name", ["pentagon", "petersen", "wheel6"])
def test_graph_results_pass_the_checker(oracle, name):
    G = graphs.catalog(name)
    assert check(oracle(G), G)["ok"]


@pytest.mark.parametrize("A", [0.77 * np.ones((4, 4)), np.diag([4.0] * 4)],
                         ids=["flat", "diagonal"])
def test_markov_member_ascent_point_is_recomputed(A):
    v = quantum.markov_choi_check(A)
    assert v.certificate["route"] == "markov-ascent"
    assert pairwise.verify_pair(_markov_pair(A), v)
    assert check(v, _markov_pair(A)).get("diagonal_criterion", True)
    # g is recomputed from the pair's A: at 0.5 I the uniform point gives
    # g = 4 / 1.5 > 1
    uniform = forge(v, t=np.full(4, 0.25))
    rep = check(uniform, _markov_pair(0.5 * np.eye(4)))
    assert rep["ascent_value"] is False and rep["ok"] is False


def test_threshold_order_is_checked_with_the_sigma_certificate():
    G = graphs.catalog("pentagon")
    rep = graphs.classify_map(G)
    assert check(rep, G)["threshold_order"]
    swapped = dataclasses.replace(rep, t_cp=rep.t_pos + 1.0)
    out = check(swapped, G)
    assert out["X_value"] and out["threshold_order"] is False
    assert out["ok"] is False
