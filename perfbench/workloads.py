"""The four benchmark workloads: input generation, one item, output gates.

Every input comes from a finite pool generated from fixed base seeds, so the
verdict reference in ``reference/`` covers every item any run seed can pick;
the run seed only chooses and orders pool items.  A seeded share of the
pair_chain and sos_levels pools (and of the CLI's matrix files) is multiplied
by a positive scalar drawn log-uniformly from [1e-3, 1e3]: verdicts must not
depend on magnitude, and an input that stalls because of its magnitude shows
up as an ``unknown`` instead of being avoided.

A workload yields passes (lists of items).  ``run_item`` is the only timed
call; ``check`` runs after the timed region and returns the gate failures of
one item, including flips against the reference.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from conekit import cones, graphs, pairwise as pw, quantum
from conekit.cones import Verdict
from conekit.linalg import inner

SCALED_SHARE = 0.25
PAIR_BASE, PAIR_POOL = 20250915, 400     # 100 pairs in each of four styles
SOS_BASE, SOS_VARIANTS = 7201, 8         # scale variants per is_kr instance
DICKE_BASE, DICKE_VARIANTS = 7301, 8     # scale variants of the Berman state
HORN_BASE, HORN_VARIANTS = 7401, 8       # scale variants of the Horn matrix
CLI_PAIRS = 16                           # pair pool items the CLI may draw
KR_SHAPES = ((1, 12), (2, 8))            # (level r, n) of the is_kr items
CHILD_TIMEOUT_S = 120.0

STATUS_OF_EXIT = {0: "member", 1: "non_member", 2: "unknown"}


def _magnitude(rng) -> float:
    if rng.random() < SCALED_SHARE:
        return float(10.0 ** rng.uniform(-3.0, 3.0))
    return 1.0


def _ring(M):
    return M - np.diag(np.diag(M))


def make_pair(i: int):
    """Pool pair i in style i % 4 of acceptance criterion 7, maybe scaled."""
    rng = np.random.default_rng([PAIR_BASE, i])
    n, style = 5, i % 4
    if style == 0:
        A = np.abs(rng.normal(size=(n, n)))
        G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = G @ G.conj().T * 0.3
    elif style == 1:
        V = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        Wm = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
        A = np.zeros((n, n))
        B = np.zeros((n, n), dtype=complex)
        for k in range(2):
            Aat, Bat = pw._atom(V[:, k], Wm[:, k])
            A = A + Aat
            B = B + Bat
    elif style == 2:
        N = np.abs(rng.normal(size=(n, n)))
        N = _ring((N + N.T) / 2)
        A = N + np.diag(rng.uniform(0, 1, n))
        B = np.diag(np.diag(A)) - N + 0.1j * _ring(rng.normal(size=(n, n)))
        B = (B + B.conj().T) / 2
    else:
        A = rng.normal(size=(n, n)) * 0.5 + 0.5
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = (B + B.conj().T) / 2
    d = np.abs(np.diag(B).real) + 0.1
    A[np.diag_indices(n)] = d
    B = B - np.diag(np.diag(B)) + np.diag(d)
    scale = _magnitude(rng)
    return style, scale, A * scale, B * scale


def make_kr(r: int, n: int, member: bool, variant: int):
    """One fixed instance per (level, member) in scale variant ``variant``.

    PSD + nonnegative + 0.1 I is a member at every level; the non-member
    subtracts a multiple of J that makes the form negative at a point x of
    the simplex, so it is not even copositive."""
    rng = np.random.default_rng([SOS_BASE, r, int(member)])
    Q = rng.normal(size=(n, n // 2))
    N = np.abs(rng.normal(size=(n, n))) * (rng.random((n, n)) < 0.3)
    M = Q @ Q.T / (n // 2) + _ring((N + N.T) / 2) + 0.1 * np.eye(n)
    if not member:
        x = rng.dirichlet(np.ones(n))
        M = M - 1.2 * float(x @ M @ x) * np.ones((n, n))
    scale = variant_scale(SOS_BASE + r + 10 * int(member), variant)
    return scale, M * scale


def variant_scale(base: int, v: int) -> float:
    return _magnitude(np.random.default_rng([base, v]))


def status_name(v) -> str:
    return v.status.value


def _flips(status: dict, ref: dict) -> list:
    """Member <-> non_member disagreements with the reference.  A definite
    reference that became unknown is not a failure (it counts as unknown);
    an unknown reference that became definite is allowed."""
    bad = []
    for key, got in status.items():
        want = ref.get(key)
        if {got, want} == {"member", "non_member"}:
            bad.append(f"{key}: {got}, reference {want}")
    return bad


def chain(pair):
    """One pair_chain item: the four oracles of acceptance criterion 7."""
    pcp = pw.pcp_checks(pair, effort="fast")
    cld = pw.is_cldui_plus(pair)
    dec = pw.is_pdec(pair)
    cop = pw.is_copcp(pair, effort="fast")
    return pcp, cld, dec, cop


def chain_statuses(out) -> dict:
    pcp, _, dec, cop = out
    return {"pcp": status_name(pcp), "pdec": status_name(dec),
            "copcp": status_name(cop)}


# ---------------------------------------------------------------------------


class PairChain:
    """Criterion 7's chain: pcp_checks -> is_cldui_plus -> is_pdec ->
    is_copcp on seeded 5x5 pairs; each pass takes one pair of each style."""

    name = "pair_chain"

    def __init__(self, root: Path, seed: int, reference: dict, quick: bool):
        self.ref = reference["pairs"]
        rng = np.random.default_rng(seed)
        self.order = [rng.permutation(np.arange(s, PAIR_POOL, 4))
                      for s in range(4)]
        self.quick = quick
        self.pairs = {}

    def setup(self) -> None:
        for perm in self.order:
            for i in perm:
                _, _, A, B = make_pair(int(i))
                self.pairs[int(i)] = pw.pair_form(A, B)
        chain(pw.pair_form(*make_pair(PAIR_POOL)[2:]))  # warm-up

    def passes(self):
        for k in range(1 if self.quick else len(self.order[0])):
            yield [int(perm[k]) for perm in self.order]

    def run_item(self, i: int):
        return chain(self.pairs[i])

    def statuses(self, i, out) -> dict:
        return chain_statuses(out)

    def check(self, i, out) -> list:
        pcp, cld, dec, cop = out
        pair = self.pairs[i]
        bad = []
        if pcp.status is Verdict.MEMBER and not cld:
            bad.append("chain: pcp member but not cldui+")
        if cld and dec.status is Verdict.NON_MEMBER:
            bad.append("chain: cldui+ but pdec non_member")
        if dec.status is Verdict.MEMBER and cop.status is Verdict.NON_MEMBER:
            bad.append("chain: pdec member but copcp non_member")
        for tag, v in (("pdec", dec), ("copcp", cop)):
            if v.status is not Verdict.UNKNOWN and not pw.verify_pair(pair, v):
                bad.append(f"verify_pair failed on {tag} {status_name(v)}")
        cert = cop.certificate or {}
        if cop.status is Verdict.NON_MEMBER and "v" in cert:
            if not pw.copcp_form_value(pair, cert["v"], cert["w"]) < 0:
                bad.append("copcp refutation vector has form value >= 0")
        ref = self.ref[str(i)]
        if cld != ref["cldui"]:
            bad.append(f"cldui+ {cld}, reference {ref['cldui']}")
        return bad + _flips(self.statuses(i, out), ref)


class GapScan:
    """scan_gap over every connected graph on 5-7 vertices; the seed only
    permutes the order.  Eight passes make up the whole list."""

    name = "gap_scan"

    def __init__(self, root: Path, seed: int, reference: dict, quick: bool):
        data = root / "tests" / "data"
        self.lines = []
        for n in (5, 6, 7):
            text = (data / f"connected{n}.g6").read_text()
            self.lines += [ln.strip() for ln in text.splitlines() if ln.strip()]
        self.gaps = set(reference["gap_graphs"])
        self.counts = reference["gap_counts"]
        perm = np.random.default_rng(seed).permutation(len(self.lines))
        order = [int(k) for k in perm[: 12 if quick else None]]
        # eight passes make up the whole list, so every run covers it
        self.chunks = [list(c) for c in np.array_split(order, 8)]
        self.min_passes = len(self.chunks)

    def setup(self) -> None:
        graphs.scan_gap([self.lines[0]])  # warm-up

    def passes(self):
        while True:
            yield from self.chunks

    def run_item(self, k: int):
        return graphs.scan_gap([self.lines[k]])[0]

    def statuses(self, k, rec) -> dict:
        return {"gap": "member" if rec.gap else "non_member"}

    def check(self, k, rec) -> list:
        if rec.error:
            return [f"scan error: {rec.error}"]
        want = self.lines[k] in self.gaps
        if rec.gap != want:
            return [f"gap flag {rec.gap}, reference {want}"]
        return []

    def check_all(self, records) -> list:
        """Gap counts per order, when the run covered the whole list."""
        if len({k for k, _ in records}) < len(self.lines):
            return []
        found = {}
        for k, rec in records:
            if rec.gap:
                found.setdefault(rec.n, set()).add(self.lines[k])
        got = {str(n): len(found.get(n, ())) for n in (5, 6, 7)}
        return [] if got == self.counts else [f"gap counts {got}, "
                                               f"expected {self.counts}"]


class SosLevels:
    """A few large hierarchy solves over a fixed list: is_kr at r = 1
    (n = 12) and r = 2 (n = 8), one member and one non-member each,
    dicke_extendibility of the Berman state at r = 3 and 4, and
    find_extendible_entangled(5, 3).  The scale variant of each input is
    drawn once from the base seed, so every run has the same inputs; the
    seed only permutes the order.  (Scale changes the cost of a solve by up
    to 2.5x, which with seven items per run would swamp the spread.)"""

    name = "sos_levels"

    def __init__(self, root: Path, seed: int, reference: dict, quick: bool):
        self.ref = reference["items"]
        base = np.random.default_rng(SOS_BASE)
        items = [("kr", r, n, member, int(base.integers(SOS_VARIANTS)))
                 for r, n in KR_SHAPES for member in (True, False)]
        items += [("dicke", r, int(base.integers(DICKE_VARIANTS)))
                  for r in (3, 4)]
        items.append(("fee",))
        if quick:
            items = [items[0], items[1], items[4]]
        perm = np.random.default_rng(seed).permutation(len(items))
        self.items = [items[k] for k in perm]
        self.inputs = {}

    @staticmethod
    def key(item) -> str:
        return "-".join(str(int(p)) if isinstance(p, bool) else str(p)
                        for p in item)

    def setup(self) -> None:
        for item in self.items:
            if item[0] == "kr":
                self.inputs[item] = make_kr(*item[1:])[1]
            elif item[0] == "dicke":
                s = variant_scale(DICKE_BASE, item[2])
                self.inputs[item] = cones.berman_matrix().astype(float) * s
        # warm-up, including the monomial tables every process builds once
        # per (n, r) shape
        for r, n in KR_SHAPES + ((1, 5), (2, 5)):
            cones._sos_data(n, r)
        cones.is_kr(cones.horn_matrix(), 1)

    def passes(self):
        while True:
            yield self.items

    def run_item(self, item):
        if item[0] == "kr":
            return cones.is_kr(self.inputs[item], item[1])
        if item[0] == "dicke":
            return quantum.dicke_extendibility(self.inputs[item], item[1])
        return quantum.find_extendible_entangled(5, 3)

    def statuses(self, item, out) -> dict:
        if item[0] == "fee":
            return {"found": "member"}
        return {item[0]: status_name(out)}

    def check(self, item, out) -> list:
        bad = []
        if item[0] == "kr":
            M, r = self.inputs[item], item[1]
            cert = out.certificate
            if out.status is Verdict.MEMBER:
                if not cones.verify_gram(M.shape[0], r, M, cert):
                    bad.append("verify_gram failed on a member")
            elif out.status is Verdict.NON_MEMBER:
                # the library does not test these two signs itself
                if not cert["normalization"] > 0:
                    bad.append("moment normalization <= 0")
                if not cert["pairing"] < 0:
                    bad.append("moment pairing >= 0")
        elif item[0] == "dicke":
            P, cert = self.inputs[item], out.certificate
            if out.status is Verdict.NON_MEMBER:
                if not cert["pairing"] < 0:
                    bad.append("separator pairing >= 0")
                if not cones.verify_gram(P.shape[0], item[1] - 2, cert["M"],
                                         cert["gram"]):
                    bad.append("separator Gram certificate failed")
            elif out.status is Verdict.MEMBER:
                scale = max(1.0, float(np.max(np.abs(P))))
                if cert["y0"] < 0 or cert["recon_residual"] > 1e-6 * scale:
                    bad.append("dual-cone decomposition does not rebuild P")
        else:
            # acceptance criterion 9's re-checks
            found, certs = out
            if cones.in_kr_dual(found, 1).status is not Verdict.MEMBER:
                bad.append("extendibility does not re-verify")
            W = certs["cp_witness"]
            if not inner(found, W) < -1e-9:
                bad.append("witness pairing >= -1e-9")
            if cones.is_cop(W).status is not Verdict.MEMBER:
                bad.append("witness copositivity not re-certified")
        return bad + _flips(self.statuses(item, out), self.ref[self.key(item)])


class CliCold:
    """Fresh ``python -m conekit.cli`` processes over a fixed command list
    with seeded input files; the item latency includes interpreter start
    and import."""

    name = "cli_cold"
    min_passes = 2  # sixteen items, so item_tail_ms is always a percentile

    def __init__(self, root: Path, seed: int, reference: dict, quick: bool):
        self.ref = reference
        rng = np.random.default_rng(seed)
        self.horn = int(rng.integers(HORN_VARIANTS))
        self.berman = int(rng.integers(DICKE_VARIANTS))
        self.pair = int(rng.integers(CLI_PAIRS))
        self.workdir = root / ".perfbench_tmp" / f"cli-{os.getpid()}"
        self.commands = self.command_list(self.horn, self.berman, self.pair)
        if quick:
            self.commands = self.commands[:3]
        self.env = child_env(root)

    @staticmethod
    def command_list(horn: int, berman: int, pair: int) -> list:
        """(key, argv) of the commands of one pass."""
        return [
            ("sigma-petersen", ["sigma", "--graph", "petersen"]),
            ("sigma-sdp-shrikhande",
             ["sigma", "--strategy", "sdp", "--graph", "shrikhande"]),
            (f"cop-horn-{horn}", ["cone-check", "--cone", "cop", "--in",
                                  f"horn{horn}.json", "--verify"]),
            (f"spn-horn-{horn}", ["cone-check", "--cone", "spn", "--in",
                                  f"horn{horn}.json", "--verify"]),
            (f"pdec-pair-{pair}", ["pair-check", "--cone", "pdec", "--A",
                                   f"a{pair}.json", "--B", f"b{pair}.json"]),
            ("classify-c5", ["classify-map", "--graph", "c5"]),
            ("srg-catalog", ["srg-catalog"]),
            (f"dicke-berman-{berman}", ["dicke-ext", "--P",
                                        f"berman{berman}.json", "--r", "3"]),
        ]

    @staticmethod
    def write_inputs(workdir: Path, horns, bermans, pairs) -> None:
        workdir.mkdir(parents=True, exist_ok=True)

        def dump(name, M):
            M = np.asarray(M)
            if np.iscomplexobj(M):
                doc = {"n": len(M), "re": M.real.tolist(), "im": M.imag.tolist()}
            else:
                doc = {"n": len(M), "real": M.tolist()}
            (workdir / name).write_text(json.dumps(doc))

        for v in horns:
            dump(f"horn{v}.json", cones.horn_matrix() * variant_scale(HORN_BASE, v))
        for v in bermans:
            dump(f"berman{v}.json",
                 cones.berman_matrix().astype(float) * variant_scale(DICKE_BASE, v))
        for i in pairs:
            _, _, A, B = make_pair(i)
            dump(f"a{i}.json", A)
            dump(f"b{i}.json", B)

    def setup(self) -> None:
        self.write_inputs(self.workdir, [self.horn], [self.berman], [self.pair])
        run_cli(["sigma", "--graph", "c5"], self.workdir, self.env)  # warm-up

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def passes(self):
        while True:
            yield self.commands

    def run_item(self, cmd):
        return run_cli(cmd[1], self.workdir, self.env)

    def statuses(self, cmd, out) -> dict:
        return {"exit": STATUS_OF_EXIT.get(out["code"], "error")}

    def check(self, cmd, out) -> list:
        key, argv = cmd
        report = out["report"]
        if report is None:
            return [f"exit {out['code']}, no JSON report: {out['stderr'][-200:]}"]
        want = self.ref["exit_codes"][key]
        bad = []
        if out["code"] not in (want, 2):
            bad.append(f"exit {out['code']}, expected {want}")
        if report.get("result", {}).get("status") == "STALLED":
            bad.append("stalled: " + str(report["result"].get("reason")))
        if "--verify" in argv and not report.get("verify", {}).get("ok"):
            bad.append("verify.ok is not true")
        return bad


WORKLOADS = {w.name: w for w in (PairChain, GapScan, SosLevels, CliCold)}


# ---------------------------------------------------------------------------
# child processes


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, cwd: Path, env: dict) -> dict:
    """Run a child to completion; returns exit code, output and wall time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
        stderr += f"\nkilled after {CHILD_TIMEOUT_S} s"
    wall = time.perf_counter() - t0
    return {"code": proc.returncode, "stdout": stdout, "stderr": stderr,
            "wall_s": wall}


def run_cli(args: list, cwd: Path, env: dict) -> dict:
    out = run_child([sys.executable, "-m", "conekit.cli"] + args, cwd, env)
    try:
        out["report"] = json.loads(out["stdout"])
    except ValueError:
        out["report"] = None
    return out
