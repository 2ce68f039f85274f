"""Small dense conic solvers: an SDP interior-point method and an LP front end.

The SDP solver implements a homogeneous self-dual embedding with
Nesterov-Todd scaling and a Mehrotra predictor-corrector, for problems in
the standard form

    minimize    sum_b <C_b, X_b> + c_f . u
    subject to  sum_b <A_ib, X_b> + F_i . u = b_i        (i = 1..m)
                X_b in a symmetric cone (real PSD, hermitian PSD, or R^d_+),
                u free.

Everything is dense and deterministic; the intended regime is a few hundred
constraint rows and blocks of order <= ~150, which covers all the membership
programs built on top of this module.  The homogeneous embedding makes
infeasibility detection a first-class outcome: the solver returns Farkas
rays rather than just failing to converge.

Blocks are stored by shape.  `SdpProblem.compile` lays the columns out
group by group: the blocks of one (kind, d) take consecutive columns, so
each group is a contiguous slice of the global svec vector that reshapes to
a (g, d, d) stack, and all nn blocks form one group, the last.  The
interior-point loop works on whole groups (the NT scaling, W X W, the
step length and the corrector are one stacked numpy call per group,
broadcasting over the stack).  Per-block matrices appear only where data
enters (`add_eq`, `set_cost`) or leaves (`SdpSolution.blocks` and `slacks`,
in declaration order).

The Schur matrix A W A^T is assembled one of two ways, chosen from the
problem's structure once per solve.  When no block is hermitian and every
cone column of A has at most one nonzero (the SOS hierarchy programs of
`cones` and the SPN program behind `is_spn` and `sigma`), it is a scatter
of each block's W (x) W onto pairs of rows (`_ScatterSchur`, SDPA's F1-F3
formulas): per iteration one gather per group over index tables of its
svec pairs (cached per block order) and one `bincount`, with no m x N
intermediate.  The scatter is taken only when its svec pairs do not
outnumber the m N entries of A, so a large block that few rows see stays
dense.  Every other problem takes the dense product A @ (W A_i W rows),
with the rows built from one stack per group of its nonzero constraint
blocks.  Hermitian problems stay dense on purpose: in `pairwise._pdec_sdp`
the only block the scatter could take is the nn slack, which gains
nothing, and the changed rounding moves the loop's floor stop (ending two
SDP-decided `is_pdec` solves after 15-16 iterations instead of 8).
`SdpSolution.stats` names the path taken ("schur") and its per-iteration
work ("schur_terms").

The loop ends at the first iterate whose score max(pres, dres, gap)
exceeds 10x the best score, once the best is under 1e-6: past that
bounce the Schur solve is at its numerical floor, and a later iterate
beats the best one only by rounding.  `solve_sdp` returns the best
interior-point iterate as it is, and `SdpSolution.stats["stop"]` records
why the loop ended.  A caller whose certificates must be face-exact
snaps that iterate to its optimal face itself (`cones._spn_program`).

LPs are delegated to scipy's HiGHS interface; `solve_lp` is public API,
and no conekit route calls it.

`solve_sdp` runs on numpy alone, and `solve_lp` (which imports `linprog`
where it is called) is the only caller of scipy left in the package.  Two
costs keep scipy out of the SDP path: importing `scipy.linalg` takes about
0.3 s in a fresh process, and scipy ships its own OpenBLAS build, whose
thread pool contends with numpy's on a machine with few cores.  numpy has
no triangular solve, so the Schur solves apply explicit inverses of the
diagonal blocks of the Cholesky factor, with one refinement step per block
that keeps the backward error of LAPACK's `potrs` (`_CholeskySolve`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from time import perf_counter
from typing import Optional

import numpy as np

from .linalg import DimensionMismatch, Tolerance, symmetrize

__all__ = [
    "SdpStatus",
    "BlockRef",
    "SdpProblem",
    "SdpSolution",
    "solve_sdp",
    "verify_sdp",
    "LpResult",
    "solve_lp",
]

_SQRT2 = math.sqrt(2.0)


class SdpStatus(Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    STALLED = "stalled"


@dataclass(frozen=True)
class BlockRef:
    """Handle to a variable block inside an SdpProblem."""

    index: int
    kind: str  # "psd" | "hpsd" | "nn" | "free"
    dim: int


class _Block:
    """Vectorization helpers for one cone shape (kind, d).

    svec and smat act on the trailing axes, so one call converts a single
    block or a whole stack (..., d, d) <-> (..., size) of blocks of this
    shape.  Both are one gather through index tables over the flattened
    matrix (its float view for hpsd, real and imaginary parts interleaved).
    """

    def __init__(self, kind: str, d: int):
        self.kind = kind
        self.d = d
        if kind == "nn":
            self.size = d
            return
        if kind not in ("psd", "hpsd"):
            raise ValueError(f"unknown block kind {kind!r}")
        i, j = np.triu_indices(d, 0 if kind == "psd" else 1)
        up, lo = i * d + j, j * d + i  # flat positions of (i, j) and (j, i)
        # svec entry e reads flat slots P[e] and Q[e] (the mirrored entry,
        # signed by S for imaginary parts) and scales by W[e]
        if kind == "psd":
            self.size = len(i)
            self._P, self._Q = up, lo
            self._S = np.ones(self.size)
            self._W = np.where(i == j, 1.0, _SQRT2)
            # smat: flat slot t is svec entry R[t] divided by W[R[t]]
            tri = np.zeros((d, d), dtype=int)
            tri[i, j] = tri[j, i] = np.arange(self.size)
            self._R = tri.ravel()
            self._Rw = self._W[self._R]
        else:
            k = len(i)
            dg = np.arange(d) * (d + 1)
            self.size = d + 2 * k
            self._P = np.concatenate([2 * dg, 2 * up, 2 * up + 1])
            self._Q = np.concatenate([2 * dg, 2 * lo, 2 * lo + 1])
            self._S = np.concatenate([np.ones(d + k), -np.ones(k)])
            self._W = np.concatenate([np.ones(d), np.full(2 * k, _SQRT2)])
            # smat: float slot t is svec entry R[t] times Rw[t] (a zero
            # imaginary part on the diagonal)
            R = np.zeros(2 * d * d, dtype=int)
            Rw = np.zeros(2 * d * d)
            R[2 * dg] = np.arange(d)
            Rw[2 * dg] = 1.0
            off = np.arange(d, d + k)
            for slot, ent, sgn in ((2 * up, off, 1.0), (2 * lo, off, 1.0),
                                   (2 * up + 1, off + k, 1.0),
                                   (2 * lo + 1, off + k, -1.0)):
                R[slot] = ent
                Rw[slot] = sgn / _SQRT2
            self._R, self._Rw = R, Rw
        self._Wh = 0.5 * self._W

    # barrier parameter
    @property
    def nu(self) -> int:
        return self.d

    def _flat(self, M) -> np.ndarray:
        """The stack M as (..., d*d) floats (hpsd: interleaved re/im)."""
        M = np.asarray(M, dtype=complex) if self.kind == "hpsd" else np.real(M)
        if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
            raise DimensionMismatch(f"expected square matrices, got shape {M.shape}")
        flat = np.ascontiguousarray(M).reshape(M.shape[:-2] + (-1,))
        return flat.view(float) if self.kind == "hpsd" else flat

    def svec(self, M) -> np.ndarray:
        """svec of the hermitian part of M (of each matrix of a stack); an nn
        block takes one vector of length d."""
        if self.kind == "nn":
            return np.asarray(M, dtype=float).reshape(self.d).copy()
        f = self._flat(M)
        return (f[..., self._P] + f[..., self._Q] * self._S) * self._Wh

    def svec_upper(self, M) -> np.ndarray:
        """svec of a stack of hermitian matrices read off their upper
        triangles alone (no averaging with the lower ones)."""
        return self._flat(M)[..., self._P] * self._W

    def smat(self, v):
        """Inverse of svec, also on a stack (..., size)."""
        if self.kind == "nn":
            return np.array(v, dtype=float)
        d = self.d
        if self.kind == "psd":
            return (v[..., self._R] / self._Rw).reshape(v.shape[:-1] + (d, d))
        flat = np.ascontiguousarray(v[..., self._R] * self._Rw)
        return flat.view(complex).reshape(v.shape[:-1] + (d, d))

    def identity_vec(self) -> np.ndarray:
        if self.kind == "nn":
            return np.ones(self.d)
        return self.svec(np.eye(self.d))


class _Group:
    """The g blocks of one shape, stored as one stack.

    Their svec entries fill the contiguous columns sl of the compiled
    problem, block after block in declaration order, so the group's stack is
    a reshape of that slice.  All nn blocks of a problem form one group: an
    nn block of their total length.
    """

    def __init__(self, blk: _Block, start: int, g: int):
        self.blk = blk
        self.g = g
        self.sl = slice(start, start + g * blk.size)

    def mats(self, v) -> np.ndarray:
        """The group's blocks of the global vector(s) v (..., N) as a
        (..., g, d, d) stack; for nn the (..., n) segment itself."""
        seg = v[..., self.sl]
        if self.blk.kind == "nn":
            return seg
        return self.blk.smat(seg.reshape(seg.shape[:-1] + (self.g, self.blk.size)))

    def vec(self, M) -> np.ndarray:
        """Inverse of mats: the group's segment (..., g * size) of svec."""
        if self.blk.kind == "nn":
            return M
        return self.blk.svec(M).reshape(M.shape[:-3] + (-1,))


@dataclass
class SdpSolution:
    status: SdpStatus
    primal_obj: float
    dual_obj: float
    blocks: list
    slacks: list
    free: np.ndarray
    y: np.ndarray
    iterations: int
    residuals: dict
    certificate: Optional[dict] = None
    # how the solve went: "polish" is "not_run" (cones._spn_program records
    # its face snap there, and the snap's seconds as time["polish"]); "m",
    # "N" and "blocks" ([kind, dim] each) give its size; "time" holds
    # seconds per phase ("scaling", "schur" build and factor, "newton"
    # solves with refinement, "step", "corrector"), and "iters", "best_iter"
    # (the iteration of the returned iterate), "refine_rounds" (total),
    # "schur_solves" (solves with the factored Schur matrix, each with a
    # vector or a block right-hand side, so that a change in "newton" time
    # can be told apart from a change in their number) and "jitter" (largest
    # used) the rest; "schur" is "scatter" or "dense" (how the Schur matrix
    # was assembled) and "schur_terms" its work per iteration: the W (x) W
    # entries scattered, or m*N*m for the dense product; "stop" says why
    # the loop ended: "optimal" (eps met), "floor" (the score bounced above
    # 10x its best once the best was under 1e-6), "step_stall" (three
    # centering steps of no length), "lost_interiority" (an iterate left the
    # cone), "schur_failed" (no jitter made the Schur matrix factor),
    # "primal_infeasible" or "dual_infeasible" (a Farkas ray met eps) or
    # "max_iter"
    stats: dict = field(default_factory=dict)

    def block(self, ref: BlockRef):
        if ref.kind == "free":
            return self.free
        return self.blocks[ref.index]

    def slack(self, ref: BlockRef):
        return self.slacks[ref.index]

    @property
    def optimal(self) -> bool:
        return self.status is SdpStatus.OPTIMAL


class SdpProblem:
    """Incremental builder for the standard-form problem.

    Use add_psd/add_hpsd/add_nn/add_free to declare variables, set_cost to
    accumulate objective coefficients, and add_eq to append equality rows.
    The objective is always minimized.
    """

    def __init__(self):
        self._blocks: list[_Block] = []
        self._shapes: dict = {}  # one _Block (and its index tables) per shape
        self._refs: list[BlockRef] = []
        self._free_dim = 0
        self._cost: dict[int, np.ndarray] = {}
        # free terms as (first column, coefficient vector) pairs
        self._free_cost: list[tuple[int, np.ndarray]] = []
        self._rows: list[dict] = []
        self._rhs: list[float] = []

    # -- variables ---------------------------------------------------------
    def _add_block(self, kind: str, d: int) -> BlockRef:
        if d <= 0:
            raise ValueError("block dimension must be positive")
        blk = self._shapes.get((kind, d))
        if blk is None:
            blk = self._shapes[(kind, d)] = _Block(kind, d)
        ref = BlockRef(len(self._blocks), kind, d)
        self._blocks.append(blk)
        self._refs.append(ref)
        return ref

    def add_psd(self, d: int) -> BlockRef:
        return self._add_block("psd", d)

    def add_hpsd(self, d: int) -> BlockRef:
        return self._add_block("hpsd", d)

    def add_nn(self, d: int) -> BlockRef:
        return self._add_block("nn", d)

    def add_free(self, k: int = 1) -> BlockRef:
        ref = BlockRef(self._free_dim, "free", k)
        self._free_dim += k
        return ref

    # -- objective ---------------------------------------------------------
    def set_cost(self, ref: BlockRef, C) -> None:
        if ref.kind == "free":
            coeffs = np.atleast_1d(np.asarray(C, dtype=float))
            if coeffs.shape != (ref.dim,):
                raise DimensionMismatch("free cost length mismatch")
            self._free_cost.append((ref.index, coeffs))
            return
        v = self._blocks[ref.index].svec(C)
        if ref.index in self._cost:
            self._cost[ref.index] = self._cost[ref.index] + v
        else:
            self._cost[ref.index] = v

    # -- constraints -------------------------------------------------------
    def add_eq(self, rhs: float, *terms) -> None:
        """Append the row  sum_t <coef_t, var_t> = rhs.

        Each term is a pair (ref, coef): a matrix for psd/hpsd blocks, a
        vector for nn blocks, and a coefficient vector (or scalar when the
        free block has dim 1) for free blocks.
        """
        row: dict = {"free": []}
        for ref, coef in terms:
            if ref.kind == "free":
                coeffs = np.atleast_1d(np.asarray(coef, dtype=float))
                if coeffs.shape != (ref.dim,):
                    raise DimensionMismatch("free coefficient length mismatch")
                row["free"].append((ref.index, coeffs))
                continue
            v = self._blocks[ref.index].svec(coef)
            if ref.index in row:
                row[ref.index] = row[ref.index] + v
            else:
                row[ref.index] = v
        self._rows.append(row)
        self._rhs.append(float(rhs))

    # -- compilation -------------------------------------------------------
    @property
    def num_rows(self) -> int:
        return len(self._rows)

    def dimension(self) -> int:
        return sum(b.size for b in self._blocks) + self._free_dim

    def compile(self):
        """Dense problem data, with the columns laid out group by group.

        Blocks of one shape (all nn blocks counting as one shape) take
        consecutive columns in declaration order, groups in order of first
        declaration except the nn group, which goes last: problems that
        differ only in the order they declare their blocks then compile to
        the same columns and take the same rounding path.  Returns
        (blocks, sl, groups, A, F, b, c, c_f) where sl[i] is the column
        slice of block i and groups are the _Group stacks, in column order.
        """
        m = len(self._rows)
        if m == 0:
            raise ValueError("problem has no constraint rows")
        if not self._blocks:
            raise ValueError("problem has no cone blocks")
        members: dict = {}
        for i, blk in enumerate(self._blocks):
            key = ("nn", 0) if blk.kind == "nn" else (blk.kind, blk.d)
            members.setdefault(key, []).append(i)
        if ("nn", 0) in members:
            members[("nn", 0)] = members.pop(("nn", 0))
        sl = [slice(0)] * len(self._blocks)
        groups = []
        N = 0
        for (kind, _), idxs in members.items():
            start = N
            for i in idxs:
                sl[i] = slice(N, N + self._blocks[i].size)
                N += self._blocks[i].size
            if kind == "nn":
                groups.append(_Group(_Block("nn", N - start), start, 1))
            else:
                groups.append(_Group(self._blocks[idxs[0]], start, len(idxs)))
        A = np.zeros((m, N))
        F = np.zeros((m, self._free_dim))
        for i, row in enumerate(self._rows):
            for bi, v in row.items():
                if bi == "free":
                    for j, coeffs in v:
                        F[i, j : j + len(coeffs)] += coeffs
                else:
                    A[i, sl[bi]] = v
        b = np.array(self._rhs)
        c = np.zeros(N)
        for bi, v in self._cost.items():
            c[sl[bi]] = v
        c_f = np.zeros(self._free_dim)
        for j, coeffs in self._free_cost:
            c_f[j : j + len(coeffs)] += coeffs
        return self._blocks, sl, groups, A, F, b, c, c_f


# ---------------------------------------------------------------------------
# interior-point machinery


def _ct(M):
    """Conjugate transpose of each matrix of a stack, C-contiguous (numpy's
    stacked matmul is slower on transposed views)."""
    return np.conjugate(M.swapaxes(-1, -2), order="C")


class _Scaling:
    """Nesterov-Todd scaling points of one group, stacked over its blocks.

    For a psd/hpsd group stores G with W = G G^H and Gi with W^{-1} = Gi Gi^H
    (so G^{-1} = Gi^H), plus the scaled spectra sig with Gi^H X Gi =
    G^H S G = diag(sig), as (g, d, d) and (g, d) stacks.  For the nn group
    stores x, s and the vector w2 = x/s.  Every method takes and returns
    stacks of the group's shape and broadcasts over extra leading axes.
    """

    def __init__(self, kind: str, X, S):
        self.nn = kind == "nn"
        if self.nn:
            self.x, self.s = X, S
            self.w2 = X / S
            return
        L = np.linalg.cholesky(X)
        R = np.linalg.cholesky(S)
        U, sig, Vh = np.linalg.svd(_ct(R) @ L)
        isq = 1.0 / np.sqrt(sig)[..., None, :]
        self.G = L @ (_ct(Vh) * isq)
        self.Gh = _ct(self.G)
        self.Gi = R @ (U * isq)
        self.Gih = _ct(self.Gi)
        self.sig = sig
        # D^{-1/2}-scaled factors for the step length
        self._QX, self._QS = self.Gi * isq, self.G * isq
        self._QXh, self._QSh = _ct(self._QX), _ct(self._QS)

    def apply(self, Z, at=None):
        """W Z W for symmetric matrices Z (vectors for the nn group).  With
        an index array at, Z[k] is a matrix of block at[k] of the group."""
        if self.nn:
            return self.w2 * Z
        G, Gh = self.G, self.Gh
        if at is not None and len(G) > 1:  # one block broadcasts, uncopied
            G, Gh = G[at], Gh[at]
        return G @ (Gh @ (Z @ G) @ Gh)

    def w(self):
        """W = G G^H, or x/s for the nn group."""
        return self.w2 if self.nn else self.G @ self.Gh

    def xinv(self):
        """X^{-1} = Gi diag(1/sig) Gi^H, or 1/x for the nn group."""
        if self.nn:
            return 1.0 / self.x
        Q = self.Gi / np.sqrt(self.sig)[..., None, :]
        return Q @ _ct(Q)

    def max_step(self, dX, dS) -> float:
        """Largest alpha with X + alpha dX and S + alpha dS in the cone.

        With D = diag(sig), X + alpha dX is in the cone exactly when
        I + alpha D^{-1/2} Gi^H dX Gi D^{-1/2} is (and S likewise with G),
        so the step is read off the smallest eigenvalue of the NT-scaled
        directions without factoring X or S again (SDPT3).  For nn blocks
        the scaled directions are dx/x and ds/s.
        """
        if self.nn:
            lam = min(float(np.min(dX / self.x)), float(np.min(dS / self.s)))
        else:
            # one eigvalsh over both directions; LAPACK still runs per matrix
            Y = np.stack((self._QXh @ dX @ self._QX, self._QSh @ dS @ self._QS))
            Y = 0.5 * (Y + Y.conj().swapaxes(-1, -2))
            lam = float(np.min(np.linalg.eigvalsh(Y)[..., 0]))
        return np.inf if lam >= 0 else -1.0 / lam

    def corrector(self, dX, dS):
        """The NT second-order term of the affine directions dX, dS."""
        if self.nn:
            return dX * dS / self.x
        DX = self.Gih @ dX @ self.Gi
        DS = self.Gh @ dS @ self.G
        P = 0.5 * (DX @ DS + DS @ DX)
        inv = 1.0 / self.sig
        Pv = P * (0.5 * (inv[..., :, None] + inv[..., None, :]))
        return self.Gi @ Pv @ self.Gih


class _DenseSchur:
    """The Schur matrix A W A^T of any problem, as the product of A with the
    rows W A_i W.

    The nonzero constraint blocks of each group form one matrix stack: row
    rows[k] of A meets block at[k] of the group in the matrix Z[k].
    """

    kind = "dense"

    def __init__(self, groups, A):
        m, N = A.shape
        self.groups, self.A = groups, A
        self.terms = m * N * m
        self.cons = []
        for grp in groups:
            seg = A[:, grp.sl]
            if grp.blk.kind == "nn":
                self.cons.append((None, None, seg))
                continue
            seg = seg.reshape(m, grp.g, grp.blk.size)
            rows, at = np.nonzero(np.any(seg != 0.0, axis=2))
            self.cons.append((rows, at, grp.blk.smat(seg[rows, at])))

    def build(self, scal) -> np.ndarray:
        """A W A^T for the group scalings scal."""
        A = self.A
        m = len(A)
        WAW_rows = np.empty(A.shape)
        for grp, sc, (rows, at, Z) in zip(self.groups, scal, self.cons):
            if sc.nn:
                WAW_rows[:, grp.sl] = sc.apply(Z)
                continue
            part = np.zeros((m, grp.g, grp.blk.size))
            part[rows, at] = grp.blk.svec_upper(sc.apply(Z, at))
            WAW_rows[:, grp.sl] = part.reshape(m, -1)
        M = A @ WAW_rows.T
        return 0.5 * (M + M.T)


@lru_cache(maxsize=None)
def _svec_pairs(d: int):
    """Index tables of the svec pairs p <= q of a real d x d block, p = (a, b)
    and q = (c, e) in svec order: the entries P and Q of each pair, the
    pairs with p = q (diag) and the flat positions in W of W_ac, W_be, W_ae
    and W_bc (pos, 4 x L).  Cached, so that every solve of one shape shares
    them: at d = 36 (the n = 8, r = 2 hierarchy) they hold 2.2e5 pairs."""
    i, j = np.triu_indices(d)
    P, Q = np.triu_indices(len(i))
    a, b, c, e = i[P], j[P], i[Q], j[Q]
    tables = (P, Q, np.flatnonzero(P == Q),
              np.stack((a * d + c, b * d + e, a * d + e, b * d + c)))
    for t in tables:
        t.flags.writeable = False
    return tables


class _ScatterSchur:
    """The Schur matrix A W A^T of a problem whose cone columns each have at
    most one nonzero, scattered from W (x) W (SDPA's F1-F3 formulas,
    Fujisawa-Kojima-Nakata, Math. Program. 79, 1997).

    Column e of A holds the value V[e] in row R[e].  The svec entry p =
    (a, b) of a real psd block is the matrix w_p (E_ab + E_ba) / 2, with
    w = 1 on the diagonal and sqrt 2 off it, so for p and q = (c, e) of one
    block <E_p, W E_q W> = w_p w_q (W_ac W_be + W_ae W_bc) / 2, and
    M[R_p, R_q] collects V_p V_q times that.  Each psd group keeps the
    positions of its pairs p <= q in its own W stack (`_svec_pairs`,
    shifted by d^2 per block); the tables over all pairs hold the constant
    factor (coef, halved again when p = q) and the flat target R_p m + R_q
    (at), so that M = T + T^T for the T they scatter to.  An nn entry adds
    V_e^2 x_e / s_e to M[R_e, R_e].  An empty column (V_e = 0) scatters
    zeros, so every pair is kept and terms = sum nu (nu + 1) / 2 over the
    psd blocks (nu the svec size) plus the nn entries.
    """

    kind = "scatter"

    def __init__(self, groups, R, V, m: int, pairs: int):
        self.m = m
        self.nn = None
        self.coef = np.empty(pairs)
        self.at = np.empty(pairs, dtype=np.intp)
        self.terms = pairs
        # per psd group: its index, its slice of the pairs, its positions
        self.parts = []
        start = 0
        for gi, grp in enumerate(groups):
            if grp.blk.kind == "nn":
                self.nn = (R[grp.sl], V[grp.sl] ** 2)
                self.terms += grp.blk.size
                continue
            g, d, size = grp.g, grp.blk.d, grp.blk.size
            P, Q, diag, pos = _svec_pairs(d)
            sl = slice(start, start + g * len(P))
            if g > 1:  # block k of the stack starts at k d^2
                shift = d * d * np.arange(g)[:, None]
                pos = (pos[:, None, :] + shift).reshape(4, -1)
            self.parts.append((gi, sl, pos))
            wV = (V[grp.sl] * np.tile(grp.blk._W, g)).reshape(g, size)
            coef = self.coef[sl].reshape(g, -1)
            np.take(wV, P, axis=1, out=coef)
            coef *= np.take(wV, Q, axis=1)
            coef *= 0.5
            coef[:, diag] *= 0.5
            Rg = R[grp.sl].reshape(g, size)
            at = self.at[sl].reshape(g, -1)
            np.take(Rg * m, P, axis=1, out=at)
            at += np.take(Rg, Q, axis=1)
            start = sl.stop

    @staticmethod
    def of(groups, A) -> Optional["_ScatterSchur"]:
        """The scatter for this problem, or None when it does not apply (a
        hermitian block, or a cone column with two nonzeros) or does not pay:
        its pairs outnumber the m N entries of A, the size of the dense
        path's W A_i W rows (one row over a d x d block would scatter d^4 / 8
        pairs where the dense product takes d^2 / 2 terms)."""
        if any(grp.blk.kind == "hpsd" for grp in groups):
            return None
        m, N = A.shape
        pairs = sum(grp.g * grp.blk.size * (grp.blk.size + 1) // 2
                    for grp in groups if grp.blk.kind == "psd")
        if pairs > m * N:
            return None
        nz = A != 0.0
        R = np.argmax(nz, axis=0)  # a column's first nonzero row (0 if none)
        V = A[R, np.arange(N)]
        if np.count_nonzero(nz) > np.count_nonzero(V):
            return None
        return _ScatterSchur(groups, R, V, m, pairs)

    def build(self, scal) -> np.ndarray:
        """A W A^T for the group scalings scal."""
        m = self.m
        K = np.empty(len(self.coef))
        for gi, sl, (ac, be, ae, bc) in self.parts:
            # fancy indexing gathers faster than np.take here
            W = scal[gi].w().ravel()
            k = np.multiply(W[ac], W[be], out=K[sl])
            k2 = W[ae]
            k2 *= W[bc]
            k += k2
        K *= self.coef
        T = np.bincount(self.at, K, minlength=m * m).reshape(m, m)
        M = T + T.T
        if self.nn is not None:
            rows, vsq = self.nn
            # the nn group is the last one
            M.flat[:: m + 1] += np.bincount(rows, vsq * scal[-1].w2, minlength=m)
        return M


def _resolve_tol(tol) -> float:
    if tol is None:
        return 1e-9
    if isinstance(tol, Tolerance):
        return max(1e-11, min(1e-9, tol.feas_tol * 1e-2))
    return float(tol)


# the Schur solves cut the Cholesky factor into diagonal blocks of at most
# _SOLVE_BLOCK rows, and _tril_inv inverts blocks of at most _INV_LEAF rows
# with LAPACK directly
_SOLVE_BLOCK = 64
_INV_LEAF = 32


def _tril_inv(T: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular matrix T, by halving: the inverse of
    [[A, 0], [B, C]] is [[A^-1, 0], [-C^-1 B A^-1, C^-1]].  numpy's inv
    (LU with pivoting, then substitution against an identity) takes the
    leaves; above them the work is matmul, which OpenBLAS runs several
    times faster than that at these orders."""
    n = len(T)
    if n <= _INV_LEAF:
        return np.linalg.inv(T)
    h = n // 2
    Ai = _tril_inv(T[:h, :h])
    Ci = _tril_inv(T[h:, h:])
    X = np.zeros_like(T)
    X[:h, :h] = Ai
    X[h:, h:] = Ci
    X[h:, :h] = -(Ci @ T[h:, :h]) @ Ai
    return X


class _CholeskySolve:
    """Solves M x = r for M = L L^T from the lower Cholesky factor L, with
    numpy alone.

    numpy has no triangular solve.  L is cut into diagonal blocks of at
    most _SOLVE_BLOCK rows, each gets an explicit inverse Q, and a block
    forward (then back) substitution applies Q with one refinement step
    against the block itself: z = Q t; z += Q (t - L_kk z).  An explicit
    inverse alone has a backward error up to cond(L_kk) times that of a
    substitution, and the Schur matrices near an optimum reach cond 1e17;
    the step brings it back to the level of LAPACK's potrs.
    """

    def __init__(self, L: np.ndarray):
        m = len(L)
        p = -(-m // _SOLVE_BLOCK)
        cuts = [m * j // p for j in range(p + 1)]
        self.m = m
        # per block: its rows a:b, the block (contiguous: np.dot copies a
        # strided matrix on every call) and its inverse, their transposes,
        # and the panels left of the block (forward) and below it (back)
        self.blocks = []
        for a, b in zip(cuts, cuts[1:]):
            D = np.ascontiguousarray(L[a:b, a:b])
            Q = _tril_inv(D)
            self.blocks.append((a, b, D, Q, D.T, Q.T, L[a:b, :a], L[b:, a:b].T))

    def solve(self, r: np.ndarray) -> np.ndarray:
        """x with L L^T x = r, for a vector or an (m, k) matrix r."""
        if len(self.blocks) == 1:
            _, _, D, Q, Dt, Qt, _, _ = self.blocks[0]
            return _refined(Qt, Dt, _refined(Q, D, r))
        z = np.empty_like(r)
        for a, b, D, Q, _, _, left, _ in self.blocks:
            z[a:b] = _refined(Q, D, r[a:b] - left @ z[:a] if a else r[a:b])
        x = np.empty_like(r)
        for a, b, _, _, Dt, Qt, _, below in reversed(self.blocks):
            x[a:b] = _refined(Qt, Dt, z[a:b] - below @ x[b:]
                              if b < self.m else z[a:b])
        return x


def _refined(Q, D, t):
    """Q t with one refinement step, Q an approximate inverse of D."""
    z = np.dot(Q, t)
    return z + np.dot(Q, t - np.dot(D, z))


def solve_sdp(problem: SdpProblem, tol=None, max_iter: int = 200,
              verbose: bool = False) -> SdpSolution:
    """Solve the problem to relative accuracy tol (default 1e-9)."""
    eps = _resolve_tol(tol)
    if problem.dimension() > 10_000:
        raise ValueError("problem dimension exceeds the supported limit (10^4)")
    blocks, sl, groups, A, F, b, c, c_f = problem.compile()
    m, N = A.shape
    k = F.shape[1]
    phase_s = dict.fromkeys(("scaling", "schur", "newton", "step",
                             "corrector"), 0.0)
    mark = 0.0  # set at the start of each timed stretch

    def lap(phase):
        """Charge the time since the last mark to phase."""
        nonlocal mark
        now = perf_counter()
        phase_s[phase] += now - mark
        mark = now

    mark = perf_counter()
    schur = _ScatterSchur.of(groups, A) or _DenseSchur(groups, A)
    lap("schur")  # the Schur matrix's setup, once per solve

    nu = sum(blk.nu for blk in blocks)
    bnorm = 1.0 + float(np.linalg.norm(b))
    cnorm = 1.0 + float(np.linalg.norm(np.concatenate([c, c_f])))

    # iterates
    x = np.concatenate([np.tile(grp.blk.identity_vec(), grp.g) for grp in groups])
    s = x.copy()
    y = np.zeros(m)
    u = np.zeros(k)
    tau, kappa = 1.0, 1.0

    best_inf = {"p": np.inf, "d": np.inf}
    best_inf_data = {}
    best_score = np.inf
    best_state = None
    best_it = 0
    stall = 0
    status = SdpStatus.STALLED
    stop = "max_iter"
    it = 0
    refine_rounds = 0
    schur_solves = 0
    max_jitter = 0.0

    def mats_of(vec):
        """Per-block matrices of vec, in declaration order."""
        return [blk.smat(vec[sl[i]]) for i, blk in enumerate(blocks)]

    for it in range(1, max_iter + 1):
        res_p = A @ x + F @ u - b * tau
        res_d = A.T @ y + s - c * tau
        res_f = F.T @ y - c_f * tau
        res_g = c @ x + c_f @ u - b @ y + kappa
        mu = (x @ s + tau * kappa) / (nu + 1)

        # -- convergence: scaled-back iterate
        pobj = (c @ x + c_f @ u) / tau
        dobj = (b @ y) / tau
        pres = float(np.linalg.norm(res_p)) / (tau * bnorm)
        dres = (float(np.linalg.norm(res_d)) + float(np.linalg.norm(res_f))) / (
            tau * cnorm
        )
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        if verbose:
            print(
                f"  it {it:3d}  mu {mu:9.2e}  pres {pres:9.2e}  dres {dres:9.2e}"
                f"  gap {gap:9.2e}  tau {tau:8.2e}  kappa {kappa:8.2e}"
            )
        score = max(pres, dres, gap)
        if score < best_score:
            best_score = score
            best_state = (x.copy(), s.copy(), y.copy(), u.copy(), tau, kappa,
                          pres, dres, gap)
            best_it = it
        elif best_score < 1e-6 and score > 10 * best_score:
            # the first bounce off the numerical floor of the Schur solve:
            # later iterates only rarely beat the best one, by rounding
            stop = "floor"
            break
        if score <= eps:
            status = SdpStatus.OPTIMAL
            stop = "optimal"
            break

        # -- infeasibility certificates from the homogeneous iterate
        by = b @ y
        if by > 0:
            q = (
                max(
                    float(np.linalg.norm(A.T @ y + s)),
                    float(np.linalg.norm(F.T @ y)),
                )
                / by
            )
            if q < best_inf["p"]:
                best_inf["p"] = q
                best_inf_data["p"] = (y / by, s / by)
            if q <= eps * 1e2:
                status = SdpStatus.PRIMAL_INFEASIBLE
                stop = "primal_infeasible"
                break
        cx = c @ x + c_f @ u
        if -cx > 0:
            q = float(np.linalg.norm(A @ x + F @ u)) / (-cx)
            if q < best_inf["d"]:
                best_inf["d"] = q
                best_inf_data["d"] = (x / -cx, u / -cx)
            if q <= eps * 1e2:
                status = SdpStatus.DUAL_INFEASIBLE
                stop = "dual_infeasible"
                break

        # -- NT scalings and Schur complement, one stacked call per group
        mark = perf_counter()
        try:
            scal = [_Scaling(grp.blk.kind, grp.mats(x), grp.mats(s))
                    for grp in groups]
        except np.linalg.LinAlgError:
            stop = "lost_interiority"  # report stalled with best iterate
            break
        xinv = np.concatenate([grp.vec(sc.xinv()) for grp, sc in zip(groups, scal)])
        lap("scaling")
        Mschur = schur.build(scal)
        jitter = 0.0
        for _ in range(8):
            try:
                chol = _CholeskySolve(np.linalg.cholesky(
                    Mschur + jitter * np.eye(m) if jitter else Mschur
                ))
                break
            except np.linalg.LinAlgError:
                base = np.trace(Mschur) / m
                jitter = max(jitter * 10, 1e-14 * max(base, 1.0))
        else:
            stop = "schur_failed"
            break
        max_jitter = max(max_jitter, jitter)

        def msolve(r):
            nonlocal schur_solves
            schur_solves += 1
            return chol.solve(r)

        def wop(vec):
            return np.concatenate(
                [grp.vec(sc.apply(grp.mats(vec))) for grp, sc in zip(groups, scal)]
            )

        Wc = wop(c)
        h = A @ Wc
        hpb, hmb = h + b, h - b
        MiF = msolve(F) if k else np.zeros((m, 0))
        Mihb = msolve(hpb)
        cWc = c @ Wc

        qq = cWc + kappa / tau
        S2 = np.empty((k + 1, k + 1))
        if k:
            S2[:k, :k] = F.T @ MiF
            S2[:k, k] = c_f - F.T @ Mihb
            S2[k, :k] = c_f - hmb @ MiF
        S2[k, k] = hmb @ Mihb - qq

        def solve3(r1, r2, r3):
            """Solve the reduced system for (dy, du, dtau):
            A W(A^T dy) + F du - (h+b) dtau = r1
            F^T dy            - c_f  dtau   = r2
            (h-b).dy + c_f.du - qq   dtau   = r3
            """
            Mir1 = msolve(r1)
            rhs2 = np.empty(k + 1)
            if k:
                rhs2[:k] = F.T @ Mir1 - r2
            rhs2[k] = r3 - hmb @ Mir1
            try:
                sol2 = np.linalg.solve(S2, rhs2)
            except np.linalg.LinAlgError:
                sol2 = np.linalg.lstsq(S2, rhs2, rcond=None)[0]
            du = sol2[:k]
            dtau = float(sol2[k])
            dy = Mir1 - (MiF @ du if k else 0.0) + Mihb * dtau
            return dy, du, dtau

        def apply3(dy, du, dtau):
            """Operator-exact evaluation of the reduced system's left side."""
            r1 = A @ wop(A.T @ dy) + (F @ du if k else 0.0) - hpb * dtau
            r2 = F.T @ dy - c_f * dtau
            r3 = hmb @ dy + (c_f @ du if k else 0.0) - qq * dtau
            return r1, r2, r3

        def newton(rc_vec, sig_mu, theta_tk):
            """One Newton solve with iterative refinement.

            The Schur matrix is formed explicitly (losing ~kappa(W)^2 digits)
            but residuals are evaluated through the scaling operator itself,
            so a couple of refinement rounds recover the lost accuracy.
            """
            nonlocal refine_rounds
            g1 = -res_p - A @ wop(rc_vec + res_d)
            g3 = (
                -res_g
                - Wc @ (rc_vec + res_d)
                - (sig_mu - tau * kappa - theta_tk) / tau
            )
            g2 = -res_f
            dy, du, dtau = solve3(g1, g2, g3)
            scale = 1.0 + max(
                float(np.linalg.norm(g1)), abs(g3),
                float(np.linalg.norm(g2)) if k else 0.0,
            )
            for _ in range(4):
                a1, a2, a3 = apply3(dy, du, dtau)
                r1 = g1 - a1
                r2 = g2 - a2
                r3 = g3 - a3
                err = max(
                    float(np.linalg.norm(r1)), abs(r3),
                    float(np.linalg.norm(r2)) if k else 0.0,
                )
                if err <= 1e-14 * scale:
                    break
                refine_rounds += 1
                cy, cu, ct = solve3(r1, r2, r3)
                dy = dy + cy
                du = du + cu
                dtau = dtau + ct
            dx = wop(rc_vec + res_d + A.T @ dy) - Wc * dtau
            ds = -res_d - A.T @ dy + c * dtau
            dkappa = (sig_mu - tau * kappa - theta_tk) / tau - (kappa / tau) * dtau
            lap("newton")
            return dx, dy, du, dtau, ds, dkappa

        def max_step(dx, ds, dtau, dkappa):
            alpha = min(sc.max_step(grp.mats(dx), grp.mats(ds))
                        for grp, sc in zip(groups, scal))
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkappa < 0:
                alpha = min(alpha, -kappa / dkappa)
            lap("step")
            return alpha

        lap("schur")
        # predictor
        aff = newton(-s, 0.0, 0.0)
        a_aff = max_step(aff[0], aff[4], aff[3], aff[5])
        a_hat = min(1.0, 0.99 * a_aff)
        mu_aff = (
            (x + a_hat * aff[0]) @ (s + a_hat * aff[4])
            + (tau + a_hat * aff[3]) * (kappa + a_hat * aff[5])
        ) / (nu + 1)
        sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-10, 1.0 - 1e-10))

        # corrector with the NT second-order term
        theta = np.concatenate(
            [grp.vec(sc.corrector(grp.mats(aff[0]), grp.mats(aff[4])))
             for grp, sc in zip(groups, scal)]
        )
        theta_tk = aff[3] * aff[5]
        rc = sigma * mu * xinv - s - theta
        lap("corrector")
        dx, dy, du, dtau, ds, dkappa = newton(rc, sigma * mu, theta_tk)
        a_max = max_step(dx, ds, dtau, dkappa)
        alpha = min(1.0, 0.99 * a_max)

        if alpha <= 1e-10:
            # fall back to a pure centering step
            rc = 0.8 * mu * xinv - s
            dx, dy, du, dtau, ds, dkappa = newton(rc, 0.8 * mu, 0.0)
            a_max = max_step(dx, ds, dtau, dkappa)
            alpha = min(1.0, 0.8 * a_max)
            if alpha <= 1e-10:
                stall += 1
                if stall >= 3:
                    stop = "step_stall"
                    break
                continue
        stall = 0

        x = x + alpha * dx
        s = s + alpha * ds
        y = y + alpha * dy
        u = u + alpha * du
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkappa

    # -- package the outcome, preferring the best iterate seen
    if best_state is not None and (
        status is SdpStatus.STALLED or best_score < max(pres, dres, gap)
    ):
        x, s, y, u, tau, kappa, pres, dres, gap = best_state
    else:
        best_it = it
    certificate = None
    if status is SdpStatus.STALLED:
        # accept a near-certificate if it is tight enough to be useful;
        # achieved residuals are reported either way
        if best_score <= 1e-6:
            status = SdpStatus.OPTIMAL
        elif best_inf["p"] <= 1e-7:
            status = SdpStatus.PRIMAL_INFEASIBLE
        elif best_inf["d"] <= 1e-7:
            status = SdpStatus.DUAL_INFEASIBLE

    if status is SdpStatus.PRIMAL_INFEASIBLE:
        ray_y, ray_s = best_inf_data.get("p", (y, s))
        by = b @ ray_y
        if abs(by - 1.0) > 1e-9 and by > 0:
            ray_y, ray_s = ray_y / by, ray_s / by
        certificate = {
            "kind": "primal_infeasible",
            "y": ray_y,
            "slacks": mats_of(ray_s),
            "b_dot_y": float(b @ ray_y),
        }
    elif status is SdpStatus.DUAL_INFEASIBLE:
        ray_x, ray_u = best_inf_data.get("d", (x, u))
        certificate = {
            "kind": "dual_infeasible",
            "blocks": mats_of(ray_x),
            "free": ray_u,
            "c_dot_x": float(c @ ray_x + c_f @ ray_u),
        }

    t = tau if tau > 0 else 1.0
    xs, ss, us, ys = x / t, s / t, u / t, y / t
    return SdpSolution(
        status=status,
        primal_obj=float(c @ xs + c_f @ us),
        dual_obj=float(b @ ys),
        blocks=mats_of(xs),
        slacks=mats_of(ss),
        free=us,
        y=ys,
        iterations=it,
        residuals={
            "primal": float(pres),
            "dual": float(dres),
            "gap": float(gap),
            "tau": float(tau),
            "kappa": float(kappa),
        },
        certificate=certificate,
        stats={"polish": "not_run", "m": m, "N": N,
               "blocks": [[blk.kind, blk.d] for blk in blocks],
               "time": phase_s, "iters": it, "best_iter": best_it, "stop": stop,
               "refine_rounds": refine_rounds, "schur_solves": schur_solves,
               "jitter": max_jitter,
               "schur": schur.kind, "schur_terms": schur.terms},
    )


def verify_sdp(problem: SdpProblem, sol: SdpSolution,
               tol: Tolerance = Tolerance()) -> dict:
    """Recompute solution residuals from scratch (certificate self-check)."""
    blocks, sl, _, A, F, b, c, c_f = problem.compile()

    def vec_of(mats):
        out = np.empty(A.shape[1])
        for i, blk in enumerate(blocks):
            out[sl[i]] = blk.svec(mats[i])
        return out

    report: dict = {"status": sol.status.value}
    if sol.status is SdpStatus.OPTIMAL:
        x = vec_of(sol.blocks)
        s = vec_of(sol.slacks)
        eigs = []
        for i, blk in enumerate(blocks):
            if blk.kind == "nn":
                eigs.append(float(np.min(sol.blocks[i])))
                eigs.append(float(np.min(sol.slacks[i])))
            else:
                eigs.append(float(np.linalg.eigvalsh(symmetrize(sol.blocks[i]))[0]))
                eigs.append(float(np.linalg.eigvalsh(symmetrize(sol.slacks[i]))[0]))
        report["min_eig"] = min(eigs)
        report["primal_residual"] = float(
            np.linalg.norm(A @ x + F @ sol.free - b)
        ) / (1.0 + float(np.linalg.norm(b)))
        report["dual_residual"] = float(
            np.linalg.norm(A.T @ sol.y + s - c)
        ) + float(np.linalg.norm(F.T @ sol.y - c_f))
        report["gap"] = abs(sol.primal_obj - sol.dual_obj) / (
            1.0 + abs(sol.primal_obj) + abs(sol.dual_obj)
        )
        report["ok"] = (
            report["min_eig"] >= -tol.eig_tol * 10
            and report["primal_residual"] <= tol.feas_tol
            and report["dual_residual"] <= tol.feas_tol * 10
            and report["gap"] <= tol.feas_tol
        )
    elif sol.status is SdpStatus.PRIMAL_INFEASIBLE:
        cert = sol.certificate
        y = cert["y"]
        s = vec_of(cert["slacks"])
        report["b_dot_y"] = float(b @ y)
        report["ray_residual"] = max(
            float(np.linalg.norm(A.T @ y + s)), float(np.linalg.norm(F.T @ y))
        )
        eigs = [
            float(np.linalg.eigvalsh(symmetrize(Mb))[0])
            if blocks[i].kind != "nn"
            else float(np.min(Mb))
            for i, Mb in enumerate(cert["slacks"])
        ]
        report["min_eig"] = min(eigs)
        report["ok"] = (
            report["b_dot_y"] > 0
            and report["ray_residual"] <= tol.feas_tol * report["b_dot_y"]
            and report["min_eig"] >= -tol.eig_tol * 10
        )
    elif sol.status is SdpStatus.DUAL_INFEASIBLE:
        cert = sol.certificate
        x = vec_of(cert["blocks"])
        report["c_dot_x"] = float(cert["c_dot_x"])
        report["ray_residual"] = float(np.linalg.norm(A @ x + F @ cert["free"]))
        eigs = [
            float(np.linalg.eigvalsh(symmetrize(Mb))[0])
            if blocks[i].kind != "nn"
            else float(np.min(Mb))
            for i, Mb in enumerate(cert["blocks"])
        ]
        report["min_eig"] = min(eigs)
        report["ok"] = (
            report["c_dot_x"] < 0
            and report["ray_residual"] <= tol.feas_tol * (-report["c_dot_x"])
            and report["min_eig"] >= -tol.eig_tol * 10
        )
    else:
        report["ok"] = False
    return report


# ---------------------------------------------------------------------------
# LP front end


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "stalled"
    x: Optional[np.ndarray]
    obj: Optional[float]
    dual_eq: Optional[np.ndarray]
    dual_ub: Optional[np.ndarray] = None


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None,
             bounds=None) -> LpResult:
    """Minimize c.x subject to A_eq x = b_eq, A_ub x <= b_ub, bounds.

    bounds follows scipy's convention; default is x >= 0.  Dual multipliers
    for the equality rows are returned when available.
    """
    from scipy.optimize import linprog

    res = linprog(
        c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=bounds,
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "stalled")
    dual_eq = None
    dual_ub = None
    if status == "optimal":
        if A_eq is not None and res.eqlin is not None:
            dual_eq = np.asarray(res.eqlin.marginals)
        if A_ub is not None and res.ineqlin is not None:
            dual_ub = np.asarray(res.ineqlin.marginals)
        return LpResult(status, np.asarray(res.x), float(res.fun), dual_eq, dual_ub)
    return LpResult(status, None, None, None, None)
