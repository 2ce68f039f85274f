import collections
import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conekit.graphs as gr
from conekit.certificates import _verify_sigma_certificate, check
from conekit.cones import SizeLimit
from conekit.linalg import Tolerance

DATA = pathlib.Path(__file__).parent / "data"
PHI = math.sqrt(5.0)


# ---------------------------------------------------------------------------
# strongly regular parameter bookkeeping

def test_srg_params_pentagon():
    p = gr.SrgParams(5, 2, 0, 1)
    assert p.r_exact == 1 or float(p.r_eig) == pytest.approx((-1 + PHI) / 2)
    f, g = p.multiplicities
    assert f + g == 4
    c = p.complement()
    assert (c.n, c.k, c.lambda_c, c.mu) == (5, 2, 0, 1)  # C5 self-complementary


def test_srg_params_petersen():
    p = gr.SrgParams(10, 3, 0, 1)
    assert p.r_eig == pytest.approx(1.0)
    assert p.s_eig == pytest.approx(-2.0)
    assert p.multiplicities == (5, 4)
    c = p.complement()
    assert (c.n, c.k, c.lambda_c, c.mu) == (10, 6, 3, 4)


def test_srg_params_complete_graph():
    p = gr.SrgParams(7, 6, 5, 6)
    assert float(p.r_eig) == pytest.approx(0.0)
    assert float(p.s_eig) == pytest.approx(-1.0)


@pytest.mark.parametrize("bad", [
    (10, 3, 0, 2),   # counting identity fails
    (5, 2, 1, 1),    # identity fails
    (16, 6, 3, 2),   # non-integral multiplicities
])
def test_srg_params_inconsistent(bad):
    with pytest.raises(gr.InconsistentParams):
        gr.SrgParams(*bad)


def test_srg_params_range_errors():
    with pytest.raises(ValueError):
        gr.SrgParams(1, 1, 0, 0)
    with pytest.raises(ValueError):
        gr.SrgParams(5, 0, 0, 0)


# ---------------------------------------------------------------------------
# graph construction and graph6

def test_graph_basic():
    g = gr.Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.num_edges == 4
    assert g.degree_sequence() == (2, 2, 2, 2)
    assert g.is_connected
    A = g.adjacency
    assert A.shape == (4, 4)
    assert np.array_equal(A, A.T)
    assert A[0, 1] == 1.0 and A[0, 2] == 0.0


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        gr.Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        gr.Graph.from_edges(3, [(1, 1)])


def test_graph_complement_roundtrip():
    g = gr.catalog("petersen")
    gc = g.complement()
    assert gc.num_edges == 45 - 15
    assert gc.complement().edges == g.edges


def test_graph6_known_values():
    # C5 in canonical graph6 spelling
    c5 = gr.Graph.from_graph6("Dhc")
    assert c5.n == 5 and c5.num_edges == 5
    assert c5.degree_sequence() == (2, 2, 2, 2, 2)
    # header form decodes the same
    c5b = gr.Graph.from_graph6(">>graph6<<Dhc")
    assert c5b.edges == c5.edges


def test_graph6_invalid():
    with pytest.raises(ValueError):
        gr.Graph.from_graph6("D")  # truncated
    with pytest.raises(ValueError):
        gr.Graph.from_graph6("D\x19\x19\x19")  # bytes below printable range


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 11).flatmap(
    lambda n: st.tuples(st.just(n), st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(
            lambda e: (min(e), max(e))
        ).filter(lambda e: e[0] != e[1]),
    ))
))
def test_graph6_roundtrip(case):
    n, edges = case
    g = gr.Graph.from_edges(n, edges)
    assert gr.Graph.from_graph6(g.to_graph6()).edges == g.edges


# ---------------------------------------------------------------------------
# catalog

def test_catalog_aliases():
    assert gr.catalog("pentagon").edges == gr.catalog("c5").edges
    assert gr.catalog("paley5").edges == gr.catalog("c5").edges
    assert gr.catalog("W6").n == 6
    assert gr.catalog("k4").num_edges == 6


def test_catalog_unknown():
    with pytest.raises(KeyError):
        gr.catalog("not-a-graph")


def test_catalog_srg_rows_validate():
    # every named strongly regular graph re-verifies its parameters exactly
    for name in gr.SRG_TABLE:
        g = gr.catalog(name)
        assert g.srg is not None
        A = g.adjacency
        n, k, lam, mu = g.srg.n, g.srg.k, g.srg.lambda_c, g.srg.mu
        J = np.ones((n, n))
        lhs = A @ A
        rhs = k * np.eye(n) + lam * A + mu * (J - np.eye(n) - A)
        assert np.array_equal(lhs, rhs)


def test_shrikhande_shares_parameters_not_edges_with_the_rook_graph():
    g = gr.catalog("shrikhande")
    h = gr.catalog("hamming24")
    assert g.srg == h.srg == gr.SrgParams(16, 6, 2, 2)
    assert g.edges != h.edges


def test_regular_graphs_that_are_not_strongly_regular():
    prism = gr.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                    (3, 5), (0, 3), (1, 4), (2, 5)])
    cube = gr.Graph.from_edges(
        8, [(u, u ^ b) for u in range(8) for b in (1, 2, 4) if u < u ^ b]
    )
    for g in (gr.cycle_graph(6), prism, cube):
        assert len(set(g.degrees())) == 1
        assert g.srg is None
    # complete and edgeless graphs are excluded by definition
    assert gr.complete_graph(5).srg is None
    assert gr.Graph(4).srg is None


def test_srg_parameters_are_not_an_option():
    with pytest.raises(TypeError):
        gr.Graph(5, srg=gr.SrgParams(5, 2, 0, 1))


CLIQUES = {
    "pentagon": 2, "paley9": 3, "petersen": 2, "petersen-complement": 4,
    "paley13": 3, "gq22": 3, "triangular6": 5, "clebsch": 2,
    "clebsch-complement": 5, "hamming24": 4, "hamming24-complement": 4,
    "paley17": 3,
}


def test_clique_numbers():
    for name, w in CLIQUES.items():
        assert gr.clique_number(gr.catalog(name)) == w, name
    assert gr.clique_number(gr.catalog("k6")) == 6
    assert gr.independence_number(gr.catalog("petersen")) == 4


def test_clique_is_found_once_per_graph(monkeypatch):
    calls = []
    search = gr._max_clique
    monkeypatch.setattr(gr, "_max_clique", lambda G: calls.append(G) or search(G))
    g = gr.catalog("wheel6")  # the colouring route fails, the core route runs
    gr.sigma(g)
    gr.classify_map(g)
    assert gr.clique_number(g) == 3 and gr.max_clique(g) == list(g.clique)
    assert calls == [g]


def test_clique_size_guard():
    big = gr.Graph.from_edges(70, [(0, 1)])
    with pytest.raises(SizeLimit):
        gr.clique_number(big)


# ---------------------------------------------------------------------------
# sigma: closed forms and SDP agreement

def cycle_sigma(n):
    return 2.0 if n % 2 == 0 else 1.0 + math.cos(math.pi / n)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9])
def test_sigma_cycles(n):
    g = gr.cycle_graph(n)
    res = gr.sigma(g)
    assert res.provenance == "cycle-closed-form"
    assert res.value == pytest.approx(cycle_sigma(n), abs=1e-9)
    sdp = gr.sigma(g, strategy="sdp")
    assert sdp.value == pytest.approx(res.value, abs=1e-6)


@pytest.mark.parametrize(
    "n, seed", [(n, None) for n in range(3, 13)] + [(7, 1), (8, 2)]
)
def test_cycle_closed_form_is_exact_without_lp(n, seed):
    g = gr.cycle_graph(n)
    if seed is not None:  # a random relabelling
        perm = np.random.default_rng(seed).permutation(n)
        g = gr.Graph.from_edges(n, [(perm[u], perm[v]) for u, v in g.edges])
    res = gr.sigma(g)
    assert res.provenance == "cycle-closed-form"
    assert res.value == pytest.approx(cycle_sigma(n), abs=1e-12)
    cert = res.certificate
    A = g.adjacency
    assert np.all(cert["E"][(A != 0) | np.eye(g.n, dtype=bool)] == 0.0)
    assert np.linalg.matrix_rank(cert["P"], tol=1e-9) <= 2
    rep = _verify_sigma_certificate(g, res, Tolerance())
    assert rep["ok"] and rep["X_value"]


def _check_sigma_cert(g, res, tol=1e-7):
    cert = res.certificate
    A, n = g.adjacency, g.n
    P, E, t = cert["P"], cert["E"], cert["t"]
    recon = P + E + t * A - np.ones((n, n))
    assert np.max(np.abs(recon)) <= tol
    assert np.linalg.eigvalsh(P)[0] >= -tol
    assert E.min() >= -tol
    X = cert["dual_X"]
    assert np.linalg.eigvalsh(X)[0] >= -tol
    assert X.min() >= -tol
    assert abs(float(np.sum(A * X)) - 1.0) <= tol
    assert abs(float(np.sum(X)) - res.value) <= 1e-6


def test_sigma_srg_table():
    for name in gr.SRG_TABLE:
        g = gr.catalog(name)
        res = gr.sigma(g)
        # the pentagon is C5, which the cycle route takes first
        want = "cycle-closed-form" if name == "pentagon" else "srg-closed-form"
        assert res.provenance == want, name
        expect = float(gr.srg_sigma(g.srg))
        assert res.value == pytest.approx(expect, abs=1e-12), name
        _check_sigma_cert(g, res)


@pytest.mark.parametrize("name", ["pentagon", "petersen", "paley13", "clebsch"])
def test_sigma_srg_sdp_agrees(name):
    g = gr.catalog(name)
    expect = float(gr.srg_sigma(g.srg))
    sdp = gr.sigma(g, strategy="sdp")
    assert sdp.value == pytest.approx(expect, abs=1e-6)
    _check_sigma_cert(g, sdp, tol=1e-6)


def _relabelled(g, seed):
    perm = np.random.default_rng(seed).permutation(g.n)
    return gr.Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))


@pytest.mark.parametrize("name", gr.SRG_TABLE + ("shrikhande", "k4", "2k3",
                                                 "k33", "c5"))
def test_sigma_depends_only_on_the_graph(name):
    # the catalog object, its graph6 round trip and two relabellings share
    # one route, one value and a passing certificate
    if name == "2k3":
        g = gr.disjoint_union(gr.complete_graph(3), gr.complete_graph(3))
    elif name == "k33":
        g = gr.Graph.from_graph6("ElUg")
    else:
        g = gr.catalog(name)
    copies = [g, gr.Graph.from_graph6(g.to_graph6()),
              _relabelled(g, 1), _relabelled(g, 2)]
    results = [gr.sigma(h) for h in copies]
    assert len({r.provenance for r in results}) == 1
    assert len({r.value for r in results}) == 1
    for h, r in zip(copies, results):
        assert check(r, h)["ok"]


def test_sigma_closed_form_covers_shrikhande():
    # strongly regular but not rank 3: the closed form and its certificate
    # read the parameters (n, k, lambda, mu) alone
    g = gr.catalog("shrikhande")
    res = gr.sigma(g)
    assert res.provenance == "srg-closed-form"
    assert res.value == pytest.approx(4 / 3, abs=1e-12)
    report = check(res, g)
    assert report["ok"] and report["X_value"]
    assert gr.sigma(g, strategy="sdp").value == pytest.approx(res.value, abs=1e-6)


def test_sigma_circulant_c8_12_is_sqrt2():
    # C_8(1, 2) is circulant but not a cycle, so no closed form applies
    g = gr.Graph.from_edges(8, [(i, (i + d) % 8) for i in range(8) for d in (1, 2)])
    res = gr.sigma(g)
    assert res.value == pytest.approx(math.sqrt(2.0), abs=1e-6)
    rep = check(res, g)
    assert rep["ok"] and rep["X_value"]


def test_srg_sigma_complete_graph_formula():
    for n in (3, 5, 8):
        p = gr.SrgParams(n, n - 1, n - 2, n - 1)
        assert float(gr.srg_sigma(p)) == pytest.approx(n / (n - 1.0))
        assert gr.sigma(gr.complete_graph(n)).value == pytest.approx(
            n / (n - 1.0), abs=1e-9
        )


def test_sigma_wheel6_certificates():
    # auto peels the hub and lifts the C5 closed form; sdp snaps the SDP
    # iterate to its optimal face
    w6 = gr.catalog("wheel6")
    expect = 1 + 1 / PHI
    A = w6.adjacency
    # entries: rim diagonal and hub-rim (sqrt5-1)/20, rim-adjacent (3-sqrt5)/20,
    # hub diagonal (5-sqrt5)/20, rim-nonadjacent zero
    a, b = (3 - PHI) / 20, (PHI - 1) / 20
    M = np.zeros((6, 6))
    for i in range(5):
        M[i, i] = b
        for j in range(i + 1, 5):
            M[i, j] = M[j, i] = a if A[i, j] else 0.0
        M[i, 5] = M[5, i] = b
    M[5, 5] = (5 - PHI) / 20
    ex = np.array([0, 0, 0, (3 * PHI - 5) / 20, (3 * PHI - 5) / 20,
                   (5 - PHI) / 10])
    for strategy, route in (("auto", "core-reduction"), ("sdp", "sdp")):
        res = gr.sigma(w6, strategy=strategy)
        assert res.provenance == route
        assert res.value == pytest.approx(expect, abs=1e-6)
        P, X = res.certificate["P"], res.certificate["dual_X"]
        wP = np.sort(np.linalg.eigvalsh(P))
        assert np.max(np.abs(wP - np.array([0, 0, 0, 2, 2, 2.0]))) <= 1e-6
        wX = np.sort(np.linalg.eigvalsh(X))
        assert np.max(np.abs(wX - ex)) <= 1e-6
        assert abs(np.sum(A * X) - 1.0) <= 1e-7
        assert abs(np.sum(X) - expect) <= 1e-7
        assert np.max(np.abs(X - M)) <= 1e-6


# ---------------------------------------------------------------------------
# sigma: the colouring route (chi = omega)

def _connected(*orders):
    for n in orders:
        for line in (DATA / f"connected{n}.g6").read_text().split():
            yield gr.Graph.from_graph6(line)


def _check_coloring_cert_exact(g, res):
    cert = res.certificate
    col, K = cert["coloring"], cert["clique"]
    k, n = len(K), g.n
    A = np.rint(g.adjacency).astype(np.int64)
    J = np.ones((n, n), dtype=np.int64)
    labels = np.array(col)
    C = (labels[:, None] == labels[None, :]).astype(np.int64)
    assert all(col[u] != col[v] for u, v in g.edges)
    assert set(col) <= set(range(k))
    assert all(A[u, v] == 1 for i, u in enumerate(K) for v in K[i + 1:])
    assert np.array_equal((k - 1) * J - k * A, (k * C - J) + k * (J - A - C))
    assert (J - A - C).min() >= 0
    assert np.max(np.abs((k - 1) * cert["P"] - (k * C - J))) <= 1e-12
    assert np.max(np.abs((k - 1) * cert["E"] - k * (J - A - C))) <= 1e-12
    assert res.value == k / (k - 1)


def test_max_clique_is_a_maximum_clique():
    for name, w in CLIQUES.items():
        g = gr.catalog(name)
        K = gr.max_clique(g)
        assert len(K) == w, name
        assert all((u, v) in g.edges for i, u in enumerate(K) for v in K[i + 1:])
    assert gr.max_clique(gr.Graph(0)) == []


def test_sigma_coloring_route_k4_minus_edge():
    g = gr.Graph.from_graph6("C}")
    res = gr.sigma(g)
    assert res.provenance == "coloring-closed-form"
    assert res.value == 1.5
    _check_coloring_cert_exact(g, res)
    _check_sigma_cert(g, res)


@pytest.mark.parametrize("name, value", [
    ("wheel6", 1 + 1 / PHI),
    ("tadpole51", 1 + math.cos(math.pi / 5)),
    ("squarepath", 1 + math.cos(math.pi / 5)),
], ids=["wheel6", "tadpole51", "squarepath"])
def test_sigma_gap_graphs_reduce_to_the_pentagon(name, value):
    # chi > omega on the six-vertex gap graphs, so no omega-colouring exists;
    # wheel6 peels its hub, tadpole51 folds 5 onto 1, squarepath 1 onto 3
    g = gr.catalog(name)
    res = gr.sigma(g)
    assert res.provenance == "core-reduction"
    assert res.certificate["core"]["provenance"] == "cycle-closed-form"
    assert abs(res.value - value) <= 1e-12
    assert res.certificate["E"].min() >= 0
    assert res.certificate["dual_X"].min() >= 0
    assert check(res, g)["ok"]


def test_sigma_gap_graph_without_hub_or_fold_takes_the_sdp():
    g = gr.Graph.from_graph6("FhEK_")
    assert gr._omega_coloring(g, gr.max_clique(g)) is None
    assert gr._core_reduction(g) == ([], list(range(7)))
    res = gr.sigma(g)
    assert res.provenance == "sdp"
    assert check(res, g)["ok"]


def test_sigma_coloring_certificates_over_lists():
    routes = collections.Counter()
    for g in _connected(5, 6, 7):
        res = gr.sigma(g)
        routes[res.provenance] += 1
        if res.provenance == "coloring-closed-form":
            _check_coloring_cert_exact(g, res)
            _check_sigma_cert(g, res, tol=1e-12)
        elif res.provenance == "core-reduction":
            _check_sigma_cert(g, res, tol=1e-12)
            assert check(res, g)["core_steps"]
    # K3,3 (ElUg) and K2,2,2 (EznW) are strongly regular; C5 (Dhc) is too,
    # but the cycle route comes first
    assert routes == {"coloring-closed-form": 946, "cycle-closed-form": 3,
                      "core-reduction": 27, "sdp": 8, "srg-closed-form": 2}


def test_sigma_auto_matches_sdp_on_small_graphs():
    graphs = list(_connected(5, 6))
    assert len(graphs) == 133
    for g in graphs:
        auto = gr.sigma(g).value
        sdp = gr.sigma(g, strategy="sdp").value
        assert auto == pytest.approx(sdp, abs=1e-6), g.to_graph6()


def test_sigma_coloring_route_relabelling_invariant():
    rng = np.random.default_rng(4)
    for g in list(_connected(6, 7))[::25]:
        perm = rng.permutation(g.n)
        h = gr.Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))
        a, b = gr.sigma(g), gr.sigma(h)
        assert a.provenance == b.provenance
        if a.provenance == "sdp":
            assert a.value == pytest.approx(b.value, abs=1e-6)
        else:
            assert a.value == b.value


def test_sigma_coloring_budget_falls_through_to_sdp(monkeypatch):
    # chi = omega = 3, but no hub, fold or cycle to take instead
    g = gr.Graph.from_graph6("EZEG")
    monkeypatch.setattr(gr, "_COLORING_NODE_BUDGET", 0)
    res = gr.sigma(g)
    assert res.provenance == "sdp"
    assert res.value == pytest.approx(1.5, abs=1e-6)


def test_sigma_coloring_budget_falls_through_to_core_reduction(monkeypatch):
    # K4 minus the edge 23: peel hub 0, fold 2 onto 3, and the colouring
    # decides the K2 left without a search node
    g = gr.Graph.from_graph6("C}")
    monkeypatch.setattr(gr, "_COLORING_NODE_BUDGET", 0)
    res = gr.sigma(g)
    assert res.provenance == "core-reduction"
    assert res.certificate["core"] == {
        "steps": [("hub", 0), ("fold", 2, 3)],
        "vertices": [1, 3],
        "provenance": "coloring-closed-form",
    }
    assert res.value == 1.5
    assert check(res, g)["ok"]


def test_sigma_core_route_relabelling_invariant():
    rng = np.random.default_rng(7)
    graphs = [g for g in _connected(6, 7) if len(gr._core_reduction(g)[0])]
    graphs += [gr.catalog(name) for name in ("wheel6", "tadpole51", "squarepath")]
    closed = ("cycle-closed-form", "coloring-closed-form", "srg-closed-form")
    for g in graphs:
        perm = rng.permutation(g.n)
        h = gr.Graph(g.n, frozenset((perm[u], perm[v]) for u, v in g.edges))
        a, b = gr.sigma(g), gr.sigma(h)
        assert a.provenance == b.provenance, g.to_graph6()
        if a.provenance != "core-reduction":
            continue
        inner = {a.certificate["core"]["provenance"], b.certificate["core"]["provenance"]}
        assert abs(a.value - b.value) <= (1e-12 if inner <= set(closed) else 1e-6)
        assert check(b, h)["ok"]


def test_sigma_core_route_hubs_and_a_fold_match_the_sdp():
    # the pentagon joined to K2 (vertices 5 and 6), with a pendant vertex 7
    # on 0 that folds onto 1 before the two hubs peel
    edges = {(i, (i + 1) % 5) for i in range(5)} | {(5, 6), (0, 7)}
    edges |= {(i, h) for i in range(5) for h in (5, 6)}
    g = gr.Graph(8, frozenset(edges))
    res = gr.sigma(g)
    assert res.provenance == "core-reduction"
    assert [s[0] for s in res.certificate["core"]["steps"]] == ["fold", "hub", "hub"]
    s1 = 2 - 1 / (1 + math.cos(math.pi / 5))
    assert abs(res.value - (2 - 1 / s1)) <= 1e-12
    assert res.value == pytest.approx(gr.sigma(g, strategy="sdp").value, abs=1e-6)
    assert check(res, g)["ok"]
    _check_sigma_cert(g, res, tol=1e-12)


def test_sigma_dual_bound_matches():
    for name in ("c5", "petersen", "wheel6"):
        g = gr.catalog(name)
        lo, X = gr.sigma_dual_bound(g)
        hi = gr.sigma(g).value
        assert lo == pytest.approx(hi, abs=1e-6)
        assert np.linalg.eigvalsh(X)[0] >= -1e-7
        assert X.min() >= -1e-7
    # the bound is the dual half of the sigma SDP, not a second solve
    g = gr.catalog("wheel6")
    lo, X = gr.sigma_dual_bound(g)
    cert = gr.sigma(g, "sdp").certificate
    assert lo == cert["dual_value"]
    assert np.array_equal(X, cert["dual_X"])


def test_sigma_dual_bound_k2():
    val, X = gr.sigma_dual_bound(gr.complete_graph(2))
    assert val == pytest.approx(2.0, abs=1e-8)


def test_sigma_no_edges_rejected():
    with pytest.raises(ValueError):
        gr.sigma(gr.Graph.from_edges(3, []))


# ---------------------------------------------------------------------------
# sigma structural invariants

def test_sigma_sandwich_bounds():
    for name in ("petersen", "paley13", "wheel6", "gq22"):
        g = gr.catalog(name)
        s = gr.sigma(g).value
        lo = 1 + 1 / gr.lambda_max(g)
        hi = 1 + 1 / (gr.clique_number(g) - 1)
        assert lo - 1e-6 <= s <= hi + 1e-6


def test_sigma_disjoint_union_is_min():
    g = gr.disjoint_union(gr.cycle_graph(5), gr.complete_graph(3))
    got = gr.sigma(g, strategy="sdp").value
    want = min(cycle_sigma(5), 1.5)
    assert got == pytest.approx(want, abs=1e-6)


def test_sigma_induced_subgraph_monotone():
    pet = gr.catalog("petersen")
    sub = pet.subgraph([0, 1, 2, 3, 4, 5])
    assert gr.sigma(sub, strategy="sdp").value >= gr.sigma(pet).value - 1e-6


def _is_bipartite(g):
    color = {}
    for start in range(g.n):
        if start in color:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in g.adjacency_lists()[v]:
                if w not in color:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def _is_triangle_free(g):
    A = g.adjacency
    return np.trace(A @ A @ A) == 0


def test_sigma_two_iff_bipartite_triangle_free():
    # over all connected triangle-free graphs on 5 and 6 vertices
    for n in (5, 6):
        for line in (DATA / f"connected{n}.g6").read_text().split():
            g = gr.Graph.from_graph6(line)
            if not _is_triangle_free(g):
                continue
            s = gr.sigma(g, strategy="sdp").value
            if _is_bipartite(g):
                assert s == pytest.approx(2.0, abs=1e-6), line
            else:
                assert s < 2.0 - 1e-6, line


# ---------------------------------------------------------------------------
# theta hierarchy

def test_theta0_c5_complement():
    res = gr.theta_r(gr.cycle_graph(5).complement(), 0)
    assert res.value == pytest.approx(PHI, abs=1e-6)


def test_theta0_empty_and_complete():
    empty = gr.Graph.from_edges(4, [])
    assert gr.theta_r(empty, 0).value == pytest.approx(4.0, abs=1e-6)
    assert gr.theta_r(gr.complete_graph(4), 0).value == pytest.approx(
        1.0, abs=1e-6
    )


def test_theta0_upper_bounds_independence():
    for name in ("petersen", "c7"):
        g = gr.catalog(name)
        assert gr.theta_r(g, 0).value >= gr.independence_number(g) - 1e-6


def test_theta_links_to_sigma():
    # sigma(G) = theta0(complement) / (theta0(complement) - 1)
    for name in ("c5", "petersen"):
        g = gr.catalog(name)
        th = gr.theta_r(g.complement(), 0).value
        assert gr.sigma(g).value == pytest.approx(th / (th - 1), abs=1e-5)


def test_theta_level_monotone():
    g = gr.catalog("c7")
    t0 = gr.theta_r(g, 0).value
    t1 = gr.theta_r(g, 1).value
    assert t1 <= t0 + 1e-6


def test_theta_guards():
    with pytest.raises(ValueError):
        gr.theta_r(gr.cycle_graph(5), 3)
    with pytest.raises(SizeLimit):
        gr.theta_r(gr.cycle_graph(9), 2)


# ---------------------------------------------------------------------------
# threshold classification

def test_classify_map_petersen():
    rep = gr.classify_map(gr.catalog("petersen"))
    assert rep.t_cp == pytest.approx(1 / 3, abs=1e-9)
    assert rep.t_ccp == pytest.approx(1.0, abs=1e-12)
    assert rep.t_dec == pytest.approx(5 / 3, abs=1e-6)
    assert rep.t_pos == pytest.approx(2.0, abs=1e-9)
    assert rep.window is not None
    lo, hi = rep.window
    assert lo == pytest.approx(5 / 3, abs=1e-6)
    assert hi == pytest.approx(2.0, abs=1e-9)


def test_classify_map_complete_graph_no_window():
    rep = gr.classify_map(gr.complete_graph(5))
    assert rep.window is None
    assert rep.t_dec == pytest.approx(rep.t_pos, abs=1e-6)


def test_classify_map_paley13_window():
    rep = gr.classify_map(gr.catalog("paley13"))
    lo, hi = rep.window
    assert lo == pytest.approx((13 + math.sqrt(13)) / 12, abs=1e-6)
    assert hi == pytest.approx(1.5, abs=1e-9)


def test_classify_map_ordering():
    for name in ("petersen", "paley13", "wheel6", "c6"):
        rep = gr.classify_map(gr.catalog(name))
        assert rep.t_cp <= rep.t_ccp + 1e-7
        assert rep.t_ccp <= rep.t_dec + 1e-7
        assert rep.t_dec <= rep.t_pos + 1e-7


# ---------------------------------------------------------------------------
# gap scan

def test_scan_gap_n5():
    lines = (DATA / "connected5.g6").read_text().splitlines()
    recs = gr.scan_gap(lines)
    assert len(recs) == 21
    gaps = [r for r in recs if r.gap]
    assert len(gaps) == 1
    (r,) = gaps
    assert r.degree_sequence == (2, 2, 2, 2, 2)
    assert r.sigma == pytest.approx((5 + PHI) / 4, abs=1e-6)
    assert r.omega == 2


def test_scan_gap_and_classify_map_call_the_public_sigma(monkeypatch):
    # a tracer that wraps graphs.sigma sees every sigma of a scan
    calls = []
    real = gr.sigma
    monkeypatch.setattr(gr, "sigma", lambda G, *a, **k: calls.append(G.n)
                        or real(G, *a, **k))
    lines = (DATA / "connected5.g6").read_text().splitlines()
    assert len(gr.scan_gap(lines)) == len(calls) == 21
    gr.classify_map(gr.catalog("petersen"))
    assert calls[21:] == [10]


def test_scan_gap_records_errors_and_continues():
    recs = gr.scan_gap(["Dhc", "garbage!!", "Dhc"])
    assert len(recs) == 3
    assert recs[0].error is None and recs[2].error is None
    assert recs[1].error is not None
    assert recs[0].sigma == pytest.approx(cycle_sigma(5), abs=1e-6)


def test_scan_gap_edgeless_line():
    recs = gr.scan_gap(["D??"])
    assert len(recs) == 1
    assert recs[0].gap is False
