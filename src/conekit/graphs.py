"""Graph parameters attached to the copositive-cone machinery.

The central quantity is ``sigma(G)``: the largest ``t`` such that
``J - t A_G`` splits as PSD plus entrywise nonnegative.  It marks the
decomposability threshold of the one-parameter family of maps attached to a
graph, and it interacts with the clique number through the universal bounds
``1 + 1/lambda_max <= sigma <= 1 + 1/(omega - 1)``.  Graphs whose sigma sits
strictly below the clique threshold ("gap graphs") carry indecomposable
positive maps.

Provided here: a small immutable ``Graph`` type with a graph6 codec and
strongly regular parameters derived from its adjacency, exact maximum
cliques by branch and bound, sigma by exact closed forms (cycles, then
strongly regular graphs, then graphs with an omega-colouring), by an
exact reduction to a smaller graph that folds dominated vertices and peels
universal ones, or by a direct SDP, each with a primal split and a dual
witness that pins the value, the level-r theta bound, a catalog of named
graphs, and a scanner for gap graphs over graph6 lists.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import chain, combinations
from typing import Iterable, Sequence

import numpy as np

from .cones import SizeLimit, _kr_program, _spn_program, _sym_from_upper
from .linalg import eig_sym
from .optim import SdpStatus

__all__ = [
    "Graph",
    "SrgParams",
    "SigmaResult",
    "ThetaResult",
    "ThresholdReport",
    "GapRecord",
    "UnsupportedOrder",
    "InconsistentParams",
    "lambda_max",
    "max_clique",
    "clique_number",
    "independence_number",
    "sigma",
    "sigma_dual_bound",
    "srg_sigma",
    "theta_r",
    "classify_map",
    "catalog",
    "paley",
    "cycle_graph",
    "complete_graph",
    "disjoint_union",
    "scan_gap",
    "SRG_TABLE",
]


class UnsupportedOrder(ValueError):
    """No construction is implemented for the requested order."""


class InconsistentParams(ValueError):
    """Strongly regular graph parameters fail a feasibility condition."""


# ---------------------------------------------------------------------------
# strongly regular parameters


@dataclass(frozen=True)
class SrgParams:
    """Parameters (n, k, lambda, mu) of a strongly regular graph.

    ``lambda_c`` counts common neighbours of adjacent pairs, ``mu`` of
    non-adjacent pairs.  The adjacency eigenvalues besides k are
    ``r, s = (lambda - mu +- sqrt((lambda - mu)^2 + 4(k - mu))) / 2``.
    """

    n: int
    k: int
    lambda_c: int
    mu: int

    def __post_init__(self):
        n, k, lam, mu = self.n, self.k, self.lambda_c, self.mu
        if n < 2 or not 1 <= k <= n - 1 or not 0 <= lam <= k - 1 or not 0 <= mu <= k:
            raise InconsistentParams(f"parameter ranges violated: {(n, k, lam, mu)}")
        if k * (k - lam - 1) != (n - 1 - k) * mu:
            raise InconsistentParams(
                "counting identity k(k-lambda-1) = (n-1-k) mu fails for "
                f"{(n, k, lam, mu)}"
            )
        if self.disc <= 0:
            raise InconsistentParams("eigenvalues r, s must be real and distinct")
        for m in self.multiplicities:
            if m < -1e-9 or abs(m - round(m)) > 1e-6:
                raise InconsistentParams(
                    "eigenvalue multiplicities must be nonnegative integers"
                )

    @property
    def disc(self) -> int:
        lam, mu, k = self.lambda_c, self.mu, self.k
        return (lam - mu) ** 2 + 4 * (k - mu)

    @property
    def r_eig(self) -> float:
        return ((self.lambda_c - self.mu) + math.sqrt(self.disc)) / 2.0

    @property
    def s_eig(self) -> float:
        return ((self.lambda_c - self.mu) - math.sqrt(self.disc)) / 2.0

    @property
    def r_exact(self) -> Fraction | None:
        """r as an exact rational when the discriminant is a perfect square."""
        root = math.isqrt(self.disc)
        if root * root != self.disc:
            return None
        return Fraction(self.lambda_c - self.mu + root, 2)

    @property
    def s_exact(self) -> Fraction | None:
        root = math.isqrt(self.disc)
        if root * root != self.disc:
            return None
        return Fraction(self.lambda_c - self.mu - root, 2)

    @property
    def multiplicities(self) -> tuple[float, float]:
        n, k = self.n, self.k
        delta = self.lambda_c - self.mu
        root = math.sqrt(self.disc)
        shift = (2 * k + (n - 1) * delta) / root
        return ((n - 1 - shift) / 2.0, (n - 1 + shift) / 2.0)

    def complement(self) -> "SrgParams":
        n, k = self.n, self.k
        return SrgParams(n, n - 1 - k, n - 2 - 2 * k + self.mu, n - 2 * k + self.lambda_c)


# ---------------------------------------------------------------------------
# the Graph type


@dataclass(frozen=True, eq=False)
class Graph:
    """A finite simple graph on vertices 0..n-1, immutable after creation."""

    n: int
    edges: frozenset = field(default_factory=frozenset)
    name: str | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        norm = set()
        for e in self.edges:
            u, v = e
            u, v = int(u), int(v)
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {(u, v)} out of range for n = {self.n}")
            norm.add((u, v) if u < v else (v, u))
        object.__setattr__(self, "edges", frozenset(norm))

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable, **kwargs) -> "Graph":
        return cls(n, frozenset(tuple(e) for e in edges), **kwargs)

    @classmethod
    def from_adjacency(cls, A, **kwargs) -> "Graph":
        A = np.asarray(A)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError("adjacency matrix must be square")
        n = A.shape[0]
        if np.any(A != A.T):
            raise ValueError("adjacency matrix must be symmetric")
        if np.any(np.diag(A) != 0):
            raise ValueError("adjacency matrix must have zero diagonal")
        if not np.all(np.isin(A, (0, 1))):
            raise ValueError("adjacency entries must be 0 or 1")
        edges = {(i, j) for i in range(n) for j in range(i + 1, n) if A[i, j]}
        return cls(n, frozenset(edges), **kwargs)

    @classmethod
    def from_graph6(cls, text: str, **kwargs) -> "Graph":
        n, edges = _g6_decode(text)
        return cls(n, frozenset(edges), **kwargs)

    # -- basic structure --------------------------------------------------

    @cached_property
    def adjacency(self) -> np.ndarray:
        """Adjacency matrix as a read-only float array."""
        A = np.zeros((self.n, self.n))
        for u, v in self.edges:
            A[u, v] = A[v, u] = 1.0
        A.flags.writeable = False
        return A

    @cached_property
    def adjacency_bits(self) -> tuple:
        """Neighbourhoods as integer bitsets: bit v of entry u is set iff uv
        is an edge."""
        adj = [0] * self.n
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    @cached_property
    def srg(self) -> SrgParams | None:
        """Strongly regular parameters (n, k, lambda, mu), or None.

        Derived from the adjacency alone: a k-regular graph that is neither
        complete nor edgeless is strongly regular exactly when
        A^2 = kI + lambda A + mu (J - I - A) holds in integers.  The degrees
        come from the cached bitsets, so a graph that is not regular costs
        no matrix product.
        """
        n = self.n
        degrees = {b.bit_count() for b in self.adjacency_bits}
        if len(degrees) != 1:
            return None
        (k,) = degrees
        if not 0 < k < n - 1:
            return None
        A = np.asarray(self.adjacency, dtype=np.int64)
        I = np.eye(n, dtype=np.int64)
        A2 = A @ A
        lam = int(A2[A == 1][0])
        mu = int(A2[(A + I) == 0][0])
        if not np.array_equal(A2, k * I + lam * A + mu * (1 - I - A)):
            return None
        return SrgParams(n, k, lam, mu)

    @cached_property
    def clique(self) -> tuple:
        """A maximum clique as a sorted vertex tuple (``_max_clique``), found
        once per graph and shared by ``max_clique``, ``clique_number`` and
        the colouring route of ``sigma``."""
        return tuple(_max_clique(self))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.array([b.bit_count() for b in self.adjacency_bits], dtype=int)

    def degree_sequence(self) -> tuple:
        return tuple(sorted(self.degrees().tolist()))

    def adjacency_lists(self) -> list:
        nbrs = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            nbrs[u].append(v)
            nbrs[v].append(u)
        return nbrs

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        nbrs = self.adjacency_lists()
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in nbrs[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def complement(self) -> "Graph":
        ce = {
            (i, j)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if (i, j) not in self.edges
        }
        nm = f"{self.name}-complement" if self.name else None
        return Graph(self.n, frozenset(ce), name=nm)

    def subgraph(self, vertices: Sequence[int]) -> "Graph":
        vs = [int(v) for v in vertices]
        if len(set(vs)) != len(vs):
            raise ValueError("duplicate vertices in induced subgraph")
        pos = {v: i for i, v in enumerate(vs)}
        es = {
            (pos[u], pos[v])
            for (u, v) in self.edges
            if u in pos and v in pos
        }
        return Graph(len(vs), frozenset(es))

    def to_graph6(self) -> str:
        return _g6_encode(self)

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        tag = f", name={self.name!r}" if self.name else ""
        return f"Graph(n={self.n}, m={self.num_edges}{tag})"


def disjoint_union(G: Graph, H: Graph) -> Graph:
    edges = set(G.edges)
    edges.update((u + G.n, v + G.n) for u, v in H.edges)
    return Graph(G.n + H.n, frozenset(edges))


# ---------------------------------------------------------------------------
# graph6 codec (bytes are 6-bit values plus 63, upper triangle column-major)


def _g6_decode(text: str) -> tuple[int, set]:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ValueError("empty graph6 record")
    vals = []
    for ch in s:
        v = ord(ch) - 63
        if not 0 <= v <= 63:
            raise ValueError(f"invalid graph6 character {ch!r}")
        vals.append(v)
    if vals[0] < 63:
        n = vals[0]
        body = vals[1:]
    elif len(vals) >= 4 and vals[1] < 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        body = vals[4:]
    else:
        raise ValueError("graph6 orders beyond 258047 are not supported")
    nbits = n * (n - 1) // 2
    if len(body) * 6 < nbits:
        raise ValueError("graph6 record truncated")
    edges = set()
    idx = 0
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for v in body:
        for shift in range(5, -1, -1):
            if idx >= nbits:
                break
            if (v >> shift) & 1:
                edges.add(pairs[idx])
            idx += 1
    return n, edges


def _g6_encode(G: Graph) -> str:
    if G.n > 62:
        raise ValueError("graph6 encoding implemented for n <= 62")
    bits = []
    for j in range(1, G.n):
        for i in range(j):
            bits.append(1 if (i, j) in G.edges else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(G.n + 63)]
    for pos in range(0, len(bits), 6):
        v = 0
        for b in bits[pos : pos + 6]:
            v = (v << 1) | b
        out.append(chr(v + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# spectral and combinatorial parameters


def lambda_max(G: Graph) -> float:
    """Largest adjacency eigenvalue."""
    if G.n == 0:
        return 0.0
    w, _ = eig_sym(np.asarray(G.adjacency))
    return float(w[-1])


def max_clique(G: Graph) -> list:
    """A maximum clique as a sorted vertex list (``Graph.clique``)."""
    return list(G.clique)


def _max_clique(G: Graph) -> list:
    """A maximum clique (sorted vertex list) by branch and bound with a
    greedy colouring bound."""
    n = G.n
    if n > 64:
        raise SizeLimit("clique search supports n <= 64")
    adj = G.adjacency_bits
    best = 0
    best_set = 0

    def color_order(P: int):
        order = []
        bound = []
        color = 0
        un = P
        while un:
            color += 1
            Q = un
            while Q:
                v = (Q & -Q).bit_length() - 1
                Q &= ~((1 << v) | adj[v])
                un &= ~(1 << v)
                order.append(v)
                bound.append(color)
        return order, bound

    def expand(size: int, R: int, P: int) -> None:
        nonlocal best, best_set
        order, bound = color_order(P)
        for i in range(len(order) - 1, -1, -1):
            if size + bound[i] <= best:
                return
            v = order[i]
            sub = P & adj[v]
            if sub:
                expand(size + 1, R | (1 << v), sub)
            elif size + 1 > best:
                best, best_set = size + 1, R | (1 << v)
            P &= ~(1 << v)

    expand(0, 0, (1 << n) - 1)
    return [v for v in range(n) if best_set >> v & 1]


def clique_number(G: Graph) -> int:
    """Exact clique number."""
    return len(G.clique)


def independence_number(G: Graph) -> int:
    return clique_number(G.complement())


# search nodes allowed to the colouring route of sigma before it gives up
_COLORING_NODE_BUDGET = 20_000


def _omega_coloring(G: Graph, clique: Sequence[int]) -> list | None:
    """A proper colouring with len(clique) colours, as colour labels per
    vertex, or None when none exists or the search exceeds its node budget.

    The clique vertices are precoloured 0..k-1 (any k-colouring gives them
    distinct colours, so this loses nothing); the rest are placed by
    backtracking in DSATUR order: the vertex with the fewest free colours
    first, ties broken by the most uncoloured neighbours.
    """
    k = len(clique)
    adj = G.adjacency_bits
    classes = [1 << v for v in clique]
    nodes = 0

    def place(rest: int) -> bool:
        nonlocal nodes
        if not rest:
            return True
        nodes += 1
        if nodes > _COLORING_NODE_BUDGET:
            return False
        pick, pick_free, pick_deg = -1, None, -1
        Q = rest
        while Q:
            v = (Q & -Q).bit_length() - 1
            Q &= Q - 1
            free = [c for c in range(k) if not classes[c] & adj[v]]
            if not free:
                return False
            deg = (adj[v] & rest).bit_count()
            if pick_free is None or (len(free), -deg) < (len(pick_free), -pick_deg):
                pick, pick_free, pick_deg = v, free, deg
        for c in pick_free:
            classes[c] |= 1 << pick
            if place(rest & ~(1 << pick)):
                return True
            classes[c] &= ~(1 << pick)
        return False

    rest = (1 << G.n) - 1
    for v in clique:
        rest &= ~(1 << v)
    if not place(rest):
        return None
    return [next(c for c in range(k) if classes[c] >> v & 1) for v in range(G.n)]


# ---------------------------------------------------------------------------
# sigma: results and strategies


@dataclass(frozen=True)
class SigmaResult:
    value: float
    provenance: str
    certificate: dict


def _sigma_result(G: Graph, value: float, provenance: str, P, E, X,
                  **extra) -> SigmaResult:
    """The one builder of a SigmaResult: the split J - value A = P + E, its
    largest residual entry, the dual witness X and the route's own keys."""
    A = np.asarray(G.adjacency)
    cert = {
        "P": P,
        "E": E,
        "t": value,
        "dual_X": X,
        "residual": float(np.max(np.abs(1.0 - value * A - P - E))),
        **extra,
    }
    return SigmaResult(value, provenance, cert)


@dataclass(frozen=True)
class ThetaResult:
    value: float
    level: int
    certificate: dict


def sigma(G: Graph, strategy: str = "auto", tol=None) -> SigmaResult:
    """Largest t with J - t A_G in the PSD-plus-nonnegative cone.

    Strategies: ``auto`` (closed forms for cycles and then for strongly
    regular graphs, both read off the adjacency; then, when a proper
    colouring with omega(G) colours exists, i.e. chi(G) = omega(G), the
    exact value omega/(omega - 1); then a core reduction to a smaller graph
    H, whose sigma comes from this same route and whose certificate is
    lifted back; otherwise the direct SDP) and ``sdp`` (the direct SDP
    alone).  The reduction folds a vertex v onto a non-neighbour u with
    N(v) inside N(u), which leaves sigma unchanged, and peels a universal
    vertex, with sigma(H v K_1) = 2 - 1/sigma(H).  Every certificate carries the
    splitting J - tA = P + E at the optimum and a dual witness X (PSD,
    entrywise nonnegative, <A,X> = 1, <J,X> = value) that pins the value
    from above; the colouring route adds the ``coloring`` and ``clique``
    that fix it, the reduction its ``core`` steps, the vertices left and
    their route.  Since the colouring route needs chi = omega, every gap
    graph has chi > omega.
    """
    if not G.edges:
        raise ValueError("sigma requires a graph with at least one edge")
    key = strategy.strip().lower()
    if key == "auto":
        res = _sigma_auto(G, tol)
    elif key == "sdp":
        res = _sigma_sdp(G, tol)
    else:
        raise ValueError(f"unknown sigma strategy {strategy!r}")
    lower = 1.0 + 1.0 / (G.n - 1) if G.n > 1 else 1.0
    if res.value < lower - 1e-6:
        raise ArithmeticError(
            f"sigma value {res.value} below the universal bound {lower}"
        )
    return res


def _sigma_auto(G: Graph, tol=None) -> SigmaResult:
    if (order := _cycle_order(G)) is not None:
        return _sigma_cycle_closed(G, order)
    if G.srg is not None:
        return _sigma_srg_closed(G)
    coloring = _omega_coloring(G, G.clique)
    if coloring is not None:
        return _sigma_coloring_closed(G, G.clique, coloring)
    steps, vertices = _core_reduction(G)
    if steps:
        return _sigma_core(G, tol, steps, vertices)
    return _sigma_sdp(G, tol)


def _core_reduction(G: Graph) -> tuple[list, list]:
    """Steps that pass G to a smaller graph with the same sigma, and the
    vertices left, until no step applies; hubs are tried before folds, each
    on the lowest labels first."""
    adj = G.adjacency_bits
    alive = (1 << G.n) - 1
    steps = []
    while True:
        live = [v for v in range(G.n) if alive >> v & 1]
        candidates = chain(
            (("hub", h) for h in live),
            (("fold", v, u) for v in live for u in live if u != v),
        )
        step = next((s for s in candidates if _core_step_applies(adj, alive, s)), None)
        if step is None:
            return steps, live
        steps.append(step)
        alive &= ~(1 << step[1])


def _core_step_applies(adj: list, alive: int, step) -> bool:
    """Whether a reduction step applies among the vertices of the bitset
    ``alive``: ``("hub", h)`` peels h when it is adjacent to every other
    vertex and an edge remains without it; ``("fold", v, u)`` removes v when
    u is not adjacent to v and N(v) lies inside N(u), so v -> u retracts the
    graph onto the graph without v."""
    kind, w, *target = step
    rest = alive & ~(1 << w)
    if kind == "hub" and not target:
        return adj[w] & alive == rest and any(
            adj[x] & rest for x in range(len(adj)) if rest >> x & 1
        )
    if kind == "fold" and len(target) == 1:
        u = target[0]
        return u != w and not adj[w] >> u & 1 and not adj[w] & alive & ~adj[u]
    return False


def _border(M: np.ndarray, i: int, edge, corner: float) -> np.ndarray:
    """M with a row and column inserted at index i: ``edge`` off the
    diagonal, ``corner`` on it."""
    edge = np.broadcast_to(np.asarray(edge, dtype=float), M.shape[:1])
    M = np.insert(M, i, edge, axis=1)
    return np.insert(M, i, np.insert(edge, i, corner), axis=0)


def _sigma_core(G: Graph, tol, steps: list, vertices: list) -> SigmaResult:
    """sigma(G) from sigma of the reduced graph H = G[vertices], with H's
    certificate lifted back through the steps in reverse.

    A fold v -> u is a homomorphism f of G onto G - v, and G - v is induced
    in G, so sigma is unchanged: P = P_H[f, f], E = E_H[f, f] +
    sigma (A_H[f, f] - A_G) (a sum of 0/1 terms, since f keeps edges), and X
    is X_H with a zero row and column at v.  A hub gives sigma(H v K_1) =
    2 - 1/sigma(H) = s: P = [[1, (1-s) 1^T], [(1-s) 1, (s/sigma) P_H +
    (s-1)^2 J]] (Schur complement (s/sigma) P_H), E = (s/sigma) E_H with a zero
    hub row, and X = [[a X_H, b x], [b x^T, c]] with x = X_H 1, a = 1/(2 sigma
    - 1), b = (sigma - 1)/(sigma (2 sigma - 1)), c = (sigma - 1)^2/(sigma
    (2 sigma - 1)), so <A, X> = 1, <J, X> = s and the Schur complement of the
    H block is 0.
    """
    inner = _sigma_auto(G.subgraph(vertices), tol)
    value = inner.value
    P, E, X = (np.asarray(inner.certificate[k]) for k in ("P", "E", "dual_X"))
    A = np.asarray(G.adjacency)
    kept = list(vertices)
    for kind, w, *target in reversed(steps):
        grown = sorted(kept + [w])
        i = grown.index(w)
        if kind == "fold":
            image = [target[0] if x == w else x for x in grown]
            f = [kept.index(x) for x in image]
            P = P[np.ix_(f, f)]
            pulled = A[np.ix_(image, image)] - A[np.ix_(grown, grown)]
            E = E[np.ix_(f, f)] + value * pulled
            X = _border(X, i, 0.0, 0.0)
        else:
            s = 2.0 - 1.0 / value
            d = 2.0 * value - 1.0
            P = _border((s / value) * P + (s - 1.0) ** 2, i, 1.0 - s, 1.0)
            E = _border((s / value) * E, i, 0.0, 0.0)
            X = _border(X / d, i, (value - 1.0) / (value * d) * X.sum(axis=1),
                        (value - 1.0) ** 2 / (value * d))
            value = s
        kept = grown
    core = {"steps": steps, "vertices": vertices, "provenance": inner.provenance}
    return _sigma_result(G, value, "core-reduction", P, E, X, core=core)


def _sigma_sdp(G: Graph, tol=None) -> SigmaResult:
    """sigma as the SPN program max t s.t. J - t A = P + E (R = J, D = -A).

    The dual matrix X of that program is doubly nonnegative with
    <A, X> = 1 and <J, X> = sigma at the optimum; it is the certificate's
    dual_X.
    """
    n = G.n
    A = np.asarray(G.adjacency)
    J = np.ones((n, n))
    sol, value, P, evec, X = _spn_program(J, -A, tol, maximize=True)
    if sol.status is not SdpStatus.OPTIMAL:
        raise ArithmeticError(
            f"sigma SDP did not converge ({sol.status.value}); "
            f"residuals {sol.residuals}"
        )
    E = _sym_from_upper(evec, n)
    return _sigma_result(G, value, "sdp", P, E, X,
                         dual_pairing=float(np.sum(A * X)),
                         dual_value=float(np.sum(X)))


def _sigma_coloring_closed(G: Graph, clique: Sequence[int], coloring) -> SigmaResult:
    """sigma = k/(k-1) from a k-clique and a proper k-colouring.

    With C the same-colour indicator, J - (k/(k-1)) A = P + E where
    P = (kC - J)/(k-1) is PSD (Cauchy-Schwarz over the colour classes) and
    E = k/(k-1) (J - A - C) is nonnegative (the colouring is proper); the
    clique indicator gives the dual X = 1_K 1_K^T / (k(k-1)).
    """
    n, k = G.n, len(clique)
    value = k / (k - 1.0)
    A = np.asarray(G.adjacency)
    J = np.ones((n, n))
    labels = np.asarray(coloring)
    C = (labels[:, None] == labels[None, :]).astype(float)
    P = (k * C - J) / (k - 1.0)
    E = value * (J - A - C)
    ind = np.zeros(n)
    ind[list(clique)] = 1.0
    X = np.outer(ind, ind) / (k * (k - 1.0))
    return _sigma_result(G, value, "coloring-closed-form", P, E, X,
                         coloring=[int(c) for c in coloring],
                         clique=[int(v) for v in clique])


def sigma_dual_bound(G: Graph, tol=None) -> tuple[float, np.ndarray]:
    """min <J, X> over doubly nonnegative X with <A_G, X> = 1.

    This is the conic dual of the sigma SDP, so the optimum equals sigma(G);
    the value and witness X are the dual_value and dual_X of that one solve.
    """
    if not G.edges:
        raise ValueError("the dual bound requires at least one edge")
    cert = _sigma_sdp(G, tol).certificate
    return cert["dual_value"], cert["dual_X"]


def _cycle_order(G: Graph):
    """Vertices of G in cycle order, or None if G is not a single cycle."""
    n = G.n
    if n < 3 or len(G.edges) != n or not G.is_connected():
        return None
    nbrs = G.adjacency_lists()
    if any(len(nb) != 2 for nb in nbrs):
        return None
    order = [0]
    prev, cur = None, 0
    for _ in range(n - 1):
        a, b = nbrs[cur]
        nxt = b if a == prev else a
        order.append(nxt)
        prev, cur = cur, nxt
    return order


def _sigma_cycle_closed(G: Graph, order: list) -> SigmaResult:
    """sigma(C_n) = 1 - cos(2 pi j / n), j = floor(n/2), certified exactly.

    That is 2 for even n and 1 + cos(pi / n) for odd n.  With pi(u) the
    position of u in ``order``, P_uv = cos(2 pi j (pi(u) - pi(v)) / n) is PSD
    of rank <= 2 and equals 1 - sigma on edges, so E = J - sigma A - P is 0
    on edges and the diagonal and 1 - P_uv >= 0 elsewhere.  The dual
    X = ((sigma - 1) I + A/2) / n is PSD (the least eigenvalue of A is
    2 cos(2 pi j / n) = 2 (1 - sigma)) and nonnegative, with <A, X> = 1 and
    <J, X> = sigma, so it pins the value from above.
    """
    n = G.n
    j = n // 2
    value = 2.0 if n % 2 == 0 else 1.0 + math.cos(math.pi / n)
    pos = np.empty(n, dtype=int)
    pos[order] = np.arange(n)
    D = (j * (pos[:, None] - pos[None, :])) % n
    P = np.cos(2.0 * math.pi * D / n)
    A = np.asarray(G.adjacency)
    J = np.ones((n, n))
    E = J - value * A - P
    E[(A != 0) | np.eye(n, dtype=bool)] = 0.0
    X = ((value - 1.0) * np.eye(n) + A / 2.0) / n
    return _sigma_result(G, value, "cycle-closed-form", P, E, X, order=order)


def _sigma_srg_closed(G: Graph) -> SigmaResult:
    p = G.srg
    exact = srg_sigma(p)
    value = float(exact)
    n, k = p.n, p.k
    r, s = p.r_eig, p.s_eig
    denom = r * (n - 1) + k
    e = n * r / denom
    A = np.asarray(G.adjacency)
    I = np.eye(n)
    J = np.ones((n, n))
    P = (1.0 - e) * J + e * I + (e - value) * A
    E = e * (J - I - A)
    X = (A - s * I) / (n * k)
    return _sigma_result(G, value, "srg-closed-form", P, E, X,
                         slack_coefficient=e,
                         exact=exact if isinstance(exact, Fraction) else None)


def srg_sigma(params: SrgParams):
    """Closed-form sigma for a strongly regular graph.

    The value and its certificate depend on the parameters (n, k, lambda,
    mu) alone, so they hold for every graph with those parameters, rank 3
    or not (Shrikhande as well as the 4x4 rook's graph).

    Returns an exact Fraction when the eigenvalue r is rational, otherwise a
    float; the value is n(r+1) / (r(n-1) + k), equivalently 1 - s/k.
    """
    n, k = params.n, params.k
    r = params.r_exact
    if r is not None:
        return Fraction(n) * (r + 1) / (r * (n - 1) + k)
    rf = params.r_eig
    return n * (rf + 1.0) / (rf * (n - 1) + k)


# ---------------------------------------------------------------------------
# theta hierarchy


def theta_r(G: Graph, r: int, tol=None) -> ThetaResult:
    """min t with t(I + A_G) - J at level r of the inner hierarchy.

    Upper-bounds the independence number at every level; at level 0 it ties
    to sigma of the complement through
    sigma(G) = theta_0(complement) / (theta_0(complement) - 1).
    """
    n = G.n
    if n == 0:
        raise ValueError("theta requires at least one vertex")
    D = np.eye(n) + np.asarray(G.adjacency)
    sol, value, gram, _, _ = _kr_program(-np.ones((n, n)), D, r, tol)
    if sol.status is not SdpStatus.OPTIMAL:
        raise ArithmeticError(
            f"theta solver did not converge ({sol.status.value}); "
            f"residuals {sol.residuals}"
        )
    cert = {"gram": gram, "target": value * D - np.ones((n, n))}
    return ThetaResult(value, r, cert)


# ---------------------------------------------------------------------------
# threshold classification


@dataclass(frozen=True)
class ThresholdReport:
    """The four thresholds of the one-parameter map family of a graph."""

    t_cp: float
    t_ccp: float
    t_dec: float
    t_pos: float
    window: tuple | None
    provenance: dict
    omega: int
    lam: float
    sigma_result: SigmaResult


def classify_map(G: Graph, tol=None) -> ThresholdReport:
    """Thresholds 1/lambda_max <= 1 <= sigma <= 1 + 1/(omega - 1).

    The returned window (sigma, 1 + 1/(omega-1)] is the parameter range where
    the map is positive but not decomposable; it is empty (None) unless sigma
    sits strictly below the clique threshold.
    """
    if not G.edges:
        raise ValueError("classification requires a graph with at least one edge")
    lam = lambda_max(G)
    om = len(G.clique)
    sig = sigma(G, "auto", tol)
    t_cp = 1.0 / lam
    t_pos = 1.0 + 1.0 / (om - 1)
    if t_cp > min(1.0, sig.value) + 1e-7 or sig.value > t_pos + 1e-7:
        raise ArithmeticError(
            f"threshold ordering violated: {t_cp}, 1, {sig.value}, {t_pos}"
        )
    window = (sig.value, t_pos) if sig.value < t_pos - 1e-6 else None
    return ThresholdReport(
        t_cp=t_cp,
        t_ccp=1.0,
        t_dec=sig.value,
        t_pos=t_pos,
        window=window,
        provenance={
            "t_cp": "closed-form",
            "t_ccp": "definition",
            "t_dec": sig.provenance,
            "t_pos": "clique-number",
        },
        omega=om,
        lam=lam,
        sigma_result=sig,
    )


# ---------------------------------------------------------------------------
# catalog


def cycle_graph(n: int, name: str | None = None) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    edges = {(i, (i + 1) % n) for i in range(n)}
    return Graph(n, frozenset(edges), name=name or f"c{n}")


def complete_graph(n: int, name: str | None = None) -> Graph:
    if n < 1:
        raise ValueError("complete graphs need at least one vertex")
    edges = {(i, j) for i in range(n) for j in range(i + 1, n)}
    return Graph(n, frozenset(edges), name=name or f"k{n}")


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


def paley(q: int) -> Graph:
    """Paley graph of order q: connect residues differing by a square.

    Implemented for primes q = 1 (mod 4); the one prime-power order in range,
    q = 9, ships as a fixed table (the nine-element field makes it the rook's
    graph of a 3 x 3 grid).
    """
    if q == 9:
        edges = set()
        for a in range(9):
            for b in range(a + 1, 9):
                r1, c1 = divmod(a, 3)
                r2, c2 = divmod(b, 3)
                if r1 == r2 or c1 == c2:
                    edges.add((a, b))
        return Graph(9, frozenset(edges), name="paley9")
    if q < 5 or not _is_prime(q) or q % 4 != 1:
        raise UnsupportedOrder(
            "paley(q) needs a prime q = 1 (mod 4); the only supported "
            "prime-power order is 9"
        )
    squares = {(x * x) % q for x in range(1, q)}
    edges = {(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares}
    return Graph(q, frozenset(edges), name=f"paley{q}")


def _two_subset_graph(m: int, adjacent_when_disjoint: bool, name: str) -> Graph:
    verts = list(combinations(range(m), 2))
    edges = set()
    for i in range(len(verts)):
        for j in range(i + 1, len(verts)):
            disjoint = not (set(verts[i]) & set(verts[j]))
            if disjoint == adjacent_when_disjoint:
                edges.add((i, j))
    return Graph(len(verts), frozenset(edges), name=name)


def _petersen() -> Graph:
    return _two_subset_graph(5, True, "petersen")


def _gq22() -> Graph:
    return _two_subset_graph(6, True, "gq22")


def _triangular6() -> Graph:
    return _two_subset_graph(6, False, "triangular6")


def _clebsch() -> Graph:
    diffs = {0b0001, 0b0010, 0b0100, 0b1000, 0b1111}
    edges = {
        (i, j) for i in range(16) for j in range(i + 1, 16) if (i ^ j) in diffs
    }
    return Graph(16, frozenset(edges), name="clebsch")


def _hamming24() -> Graph:
    edges = set()
    for a in range(16):
        for b in range(a + 1, 16):
            r1, c1 = divmod(a, 4)
            r2, c2 = divmod(b, 4)
            if r1 == r2 or c1 == c2:
                edges.add((a, b))
    return Graph(16, frozenset(edges), name="hamming24")


def _shrikhande() -> Graph:
    diffs = {(0, 1), (0, 3), (1, 0), (3, 0), (1, 1), (3, 3)}
    edges = set()
    for a in range(16):
        for b in range(a + 1, 16):
            r1, c1 = divmod(a, 4)
            r2, c2 = divmod(b, 4)
            if ((r1 - r2) % 4, (c1 - c2) % 4) in diffs:
                edges.add((a, b))
    # same parameters as the 4x4 rook's graph, but not isomorphic to it
    return Graph(16, frozenset(edges), name="shrikhande")


def _wheel6() -> Graph:
    edges = {(i, (i + 1) % 5) for i in range(5)} | {(i, 5) for i in range(5)}
    return Graph(6, frozenset(edges), name="wheel6")


def _tadpole51() -> Graph:
    edges = {(i, (i + 1) % 5) for i in range(5)} | {(0, 5)}
    return Graph(6, frozenset(edges), name="tadpole51")


def _squarepath() -> Graph:
    # a 4-cycle and a 2-path glued along their endpoints; contains an
    # induced 5-cycle, stays triangle-free
    edges = {(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (4, 5), (2, 5)}
    return Graph(6, frozenset(edges), name="squarepath")


_BUILDERS = {
    "pentagon": lambda: replace(paley(5), name="pentagon"),
    "paley5": lambda: paley(5),
    "paley9": lambda: paley(9),
    "paley13": lambda: paley(13),
    "paley17": lambda: paley(17),
    "petersen": _petersen,
    "petersen-complement": lambda: replace(
        _petersen().complement(), name="petersen-complement"
    ),
    "gq22": _gq22,
    "triangular6": _triangular6,
    "t6": _triangular6,
    "clebsch": _clebsch,
    "clebsch-complement": lambda: replace(
        _clebsch().complement(), name="clebsch-complement"
    ),
    "hamming24": _hamming24,
    "rook44": _hamming24,
    "hamming24-complement": lambda: replace(
        _hamming24().complement(), name="hamming24-complement"
    ),
    "shrikhande": _shrikhande,
    "wheel6": _wheel6,
    "w6": _wheel6,
    "tadpole51": _tadpole51,
    "t51": _tadpole51,
    "squarepath": _squarepath,
    "square-path": _squarepath,
}

# the twelve rank-3 strongly regular graphs on up to 17 vertices covered by
# closed forms, in catalog order
SRG_TABLE = (
    "pentagon",
    "paley9",
    "petersen",
    "petersen-complement",
    "paley13",
    "gq22",
    "triangular6",
    "clebsch",
    "clebsch-complement",
    "hamming24",
    "hamming24-complement",
    "paley17",
)


def catalog(name: str) -> Graph:
    """Named graph constructions; case-insensitive, with c<n>/k<n>/paley<q>."""
    key = name.strip().lower().replace("_", "-").replace(" ", "-")
    if key in _BUILDERS:
        return _BUILDERS[key]()
    m = re.fullmatch(r"c(\d+)", key)
    if m:
        return cycle_graph(int(m.group(1)))
    m = re.fullmatch(r"k(\d+)", key)
    if m:
        return complete_graph(int(m.group(1)))
    m = re.fullmatch(r"paley(\d+)", key)
    if m:
        return paley(int(m.group(1)))
    raise KeyError(f"unknown catalog graph {name!r}")


# ---------------------------------------------------------------------------
# gap scanning


@dataclass(frozen=True, slots=True)
class GapRecord:
    """Per-line scan outcome; error is set when the record was unusable."""

    line_no: int
    graph6: str
    n: int | None = None
    degree_sequence: tuple | None = None
    sigma: float | None = None
    omega: int | None = None
    gap: bool | None = None
    error: str | None = None


def scan_gap(lines: Iterable[str], tol: float = 1e-6) -> list:
    """Scan graph6 records for graphs with sigma < 1 + 1/(omega-1) - tol.

    Returns one record per non-blank input line, in input order; malformed
    lines are reported with their line number and the scan continues.
    """
    out = []
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            G = Graph.from_graph6(text)
        except ValueError as exc:
            out.append(GapRecord(line_no, text, error=str(exc)))
            continue
        if not G.edges:
            out.append(
                GapRecord(
                    line_no,
                    text,
                    n=G.n,
                    degree_sequence=G.degree_sequence(),
                    sigma=math.inf,
                    omega=min(G.n, 1),
                    gap=False,
                )
            )
            continue
        try:
            om = len(G.clique)
            res = sigma(G)
        except (ValueError, ArithmeticError, SizeLimit) as exc:
            out.append(GapRecord(line_no, text, n=G.n, error=str(exc)))
            continue
        threshold = 1.0 + 1.0 / (om - 1)
        out.append(
            GapRecord(
                line_no,
                text,
                n=G.n,
                degree_sequence=G.degree_sequence(),
                sigma=res.value,
                omega=om,
                gap=bool(res.value < threshold - tol),
            )
        )
    return out
