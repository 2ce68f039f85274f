import dataclasses

import numpy as np

from conekit import cones, graphs
from conekit.certificates import check
from conekit.cones import ConeVerdict, Verdict, berman_matrix, horn_matrix
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

