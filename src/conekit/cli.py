"""Command-line front end: every decision procedure behind one executable.

Grammar
-------

    conekit SUBCOMMAND [options]

Subcommand-specific options:

    cone-check   --cone {cp,dnn,spn,cop,kr,kr-dual} --in FILE [--level R]
    pair-check   --cone {copcp,pdec,pcp,pdnn,cldui+} --A FILE --B FILE
    sigma        --graph GRAPH [--strategy {auto,sdp}]
    classify-map --graph GRAPH
    scan-gap     --in FILE [--gap-tol X]
    srg-catalog
    dicke-ext    --P FILE --r R
    witness      --M FILE --N FILE [--level R] [--eval FILE]
    markov-choi  --A FILE

Options shared by every subcommand:

    --seed INT    deterministic seed for all randomized searches, >= 0
                  (default 0)
    --tol X       feasibility tolerance, finite and > 0 (default 1e-7); the
                  eigenvalue tolerance is tol / 10
    --effort {fast,default,thorough}
    --verify      re-check the report's certificates with certificates.check,
                  the checker verify_pair uses; no optimization is re-run
    --out FILE    write the report to FILE in addition to stdout

Matrix files hold JSON: ``{"n": 5, "real": [[...], ...]}`` for real
symmetric input or ``{"n": 5, "re": [[...]], "im": [[...]]}`` for hermitian
input.  A GRAPH argument resolves case-insensitively against the named
catalog, parses inline graph6 after a ``g6:`` prefix, or names a file whose
first non-blank line is graph6.

Exit codes: 0 member / value computed, 1 non-member / fail, 2 unknown /
stalled, 64 usage or input error.  A JSON report (``"schema": 1``) goes to
stdout on codes 0-2; re-running with identical inputs and seed reproduces
all verdicts and values.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import certificates, cones, graphs, pairwise, quantum
from .cones import Effort, Verdict
from .linalg import Tolerance, inner, min_eig

EXIT_MEMBER = 0
EXIT_NON_MEMBER = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64

_STATUS_CODE = {
    Verdict.MEMBER: EXIT_MEMBER,
    Verdict.NON_MEMBER: EXIT_NON_MEMBER,
    Verdict.UNKNOWN: EXIT_UNKNOWN,
}


class UsageError(Exception):
    """Bad flags or unusable input files; mapped to exit code 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise UsageError(message)


# ---------------------------------------------------------------------------
# input handling


@dataclasses.dataclass
class Context:
    seed: int
    tol: Tolerance
    effort: Effort
    verify: bool
    hasher: "hashlib._Hash"

    def digest_bytes(self, tag: str, data: bytes) -> None:
        self.hasher.update(tag.encode())
        self.hasher.update(b"\x00")
        self.hasher.update(data)
        self.hasher.update(b"\x00")


def _read_text(path: str, ctx: Context, tag: str) -> str:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror or exc}") from None
    ctx.digest_bytes(tag, data)
    return data.decode("utf-8", errors="replace")


def _parse_json(text: str, origin: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"malformed JSON in {origin}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        ) from None


def load_matrix(path: str, ctx: Context, tag: str, *, allow_complex=True):
    """Load a matrix file: {"n": ..., "real": ...} or {"n", "re", "im"}."""
    doc = _parse_json(_read_text(path, ctx, tag), path)
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: expected a JSON object with matrix fields")
    try:
        if "real" in doc:
            M = np.array(doc["real"], dtype=float)
        elif "re" in doc:
            M = np.array(doc["re"], dtype=float)
            if "im" in doc:
                M = M + 1j * np.array(doc["im"], dtype=float)
        else:
            raise UsageError(
                f"{path}: need a 'real' field or 're' (and optional 'im')"
            )
    except (TypeError, ValueError):
        raise UsageError(f"{path}: matrix entries must be numeric") from None
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise UsageError(f"{path}: matrix must be square, got shape {M.shape}")
    n = doc.get("n")
    if n is not None and int(n) != M.shape[0]:
        raise UsageError(
            f"{path}: declared n = {n} but the matrix has {M.shape[0]} rows"
        )
    if np.iscomplexobj(M) and not allow_complex:
        raise UsageError(f"{path}: this input must be real")
    return M


def resolve_graph(ref: str, ctx: Context) -> graphs.Graph:
    """Catalog name, inline 'g6:...' text, or a file of one graph6 line."""
    ctx.digest_bytes("graph-ref", ref.encode())
    if ref.startswith("g6:"):
        body = ref[3:].strip()
        try:
            return graphs.Graph.from_graph6(body)
        except ValueError as exc:
            raise UsageError(f"bad inline graph6 {body!r}: {exc}") from None
    p = Path(ref)
    if p.is_file():
        text = _read_text(ref, ctx, "graph-file")
        for line in text.splitlines():
            line = line.strip()
            if line:
                try:
                    return graphs.Graph.from_graph6(line)
                except ValueError as exc:
                    raise UsageError(f"{ref}: bad graph6 line: {exc}") from None
        raise UsageError(f"{ref}: no graph6 line found")
    try:
        return graphs.catalog(ref)
    except KeyError:
        raise UsageError(
            f"unknown graph {ref!r}: not a catalog name, not a 'g6:' "
            "inline string, not a readable file"
        ) from None


# ---------------------------------------------------------------------------
# JSON serialization of results and certificates


def _jsonable(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if np.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, Fraction):
        return {"fraction": f"{obj.numerator}/{obj.denominator}", "float": float(obj)}
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, np.ndarray):
        if obj.ndim == 0:
            return _jsonable(obj.item())
        if np.iscomplexobj(obj):
            return {"re": obj.real.tolist(), "im": obj.imag.tolist()}
        return obj.tolist()
    if isinstance(obj, Verdict):
        return obj.value
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in seq]
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        name = type(obj).__name__
        if name in ("SdpProblem", "SdpSolution"):
            return {"omitted": name}
        return {
            f.name: _jsonable(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    return {"omitted": type(obj).__name__}


def _verdict_payload(v) -> dict:
    out = {"status": v.status.value, "cone": v.cone}
    level = getattr(v, "level", None)
    if level is not None:
        out["level"] = level
    if v.value is not None:
        out["value"] = v.value
    if getattr(v, "detail", ""):
        out["detail"] = v.detail
    out["certificate"] = _jsonable(v.certificate)
    return out


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result payload, exit code, verify dict)


def _run_cone_check(args, ctx: Context):
    M = load_matrix(args.infile, ctx, "matrix-in")
    cone = args.cone
    level = args.level
    if cone in ("kr", "kr-dual") and level is None:
        raise UsageError(f"--cone {cone} requires --level")
    try:
        if cone == "cp":
            v = cones.is_cp(M, ctx.tol, ctx.effort, ctx.seed)
        elif cone == "spn":
            v = cones.is_spn(M, ctx.tol)
        elif cone == "cop":
            v = cones.is_cop(M, ctx.tol, ctx.effort, ctx.seed)
        elif cone == "kr":
            v = cones.is_kr(M, level, ctx.tol)
        elif cone == "kr-dual":
            v = cones.in_kr_dual(M, level, ctx.tol)
        else:  # dnn
            prof = cones.classify_elementary(M, ctx.tol)
            status = Verdict.MEMBER if prof.in_dnn else Verdict.NON_MEMBER
            facts = {"min_entry": prof.min_entry, "min_eig": prof.min_eig}
            v = cones.ConeVerdict(status, "DNN", facts)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    verify = certificates.check(v, M, ctx.tol) if ctx.verify else None
    return _verdict_payload(v), _STATUS_CODE[v.status], verify


def _run_pair_check(args, ctx: Context):
    A = load_matrix(args.A, ctx, "pair-A", allow_complex=False)
    B = load_matrix(args.B, ctx, "pair-B")
    try:
        pair = pairwise.pair_form(A, B)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        if args.cone == "copcp":
            v = pairwise.is_copcp(pair, ctx.tol, ctx.effort, ctx.seed)
        elif args.cone == "pdec":
            v = pairwise.is_pdec(pair, ctx.tol)
        elif args.cone == "pcp":
            v = pairwise.pcp_checks(pair, ctx.tol, ctx.effort, ctx.seed)
        else:  # pdnn, cldui+: closed-form tests
            test = pairwise.is_pdnn if args.cone == "pdnn" else pairwise.is_cldui_plus
            status = Verdict.MEMBER if test(pair, ctx.tol) else Verdict.NON_MEMBER
            v = pairwise.PairVerdict(
                status, args.cone.upper(), _elementary_pair_facts(pair)
            )
    except (pairwise.PreconditionError, cones.SizeLimit) as exc:
        raise UsageError(str(exc)) from None
    verify = certificates.check(v, pair, ctx.tol) if ctx.verify else None
    return _verdict_payload(v), _STATUS_CODE[v.status], verify


def _elementary_pair_facts(pair) -> dict:
    prods = pair.A * pair.A.T - np.abs(pair.B) ** 2
    np.fill_diagonal(prods, 0.0)
    return {
        "min_entry_A": float(np.min(pair.A)),
        "min_eig_B": min_eig(pair.B),
        "min_product_margin": float(np.min(prods)),
    }


def _run_sigma(args, ctx: Context):
    G = resolve_graph(args.graph, ctx)
    res = graphs.sigma(G, args.strategy, ctx.tol)
    payload = {
        "graph": {"name": G.name, "n": G.n, "edges": G.num_edges},
        "value": res.value,
        "provenance": res.provenance,
        "certificate": _jsonable(res.certificate),
    }
    verify = certificates.check(res, G, ctx.tol) if ctx.verify else None
    return payload, EXIT_MEMBER, verify


def _run_classify_map(args, ctx: Context):
    G = resolve_graph(args.graph, ctx)
    rep = graphs.classify_map(G, ctx.tol)
    payload = {
        "graph": {"name": G.name, "n": G.n, "edges": G.num_edges},
        "thresholds": {
            "t_cp": rep.t_cp,
            "t_ccp": rep.t_ccp,
            "t_dec": rep.t_dec,
            "t_pos": rep.t_pos,
        },
        "window": list(rep.window) if rep.window else None,
        "omega": rep.omega,
        "lambda_max": rep.lam,
        "provenance": rep.provenance,
        "sigma_certificate": _jsonable(rep.sigma_result.certificate),
    }
    verify = certificates.check(rep, G, ctx.tol) if ctx.verify else None
    return payload, EXIT_MEMBER, verify


def _run_scan_gap(args, ctx: Context):
    text = _read_text(args.infile, ctx, "graph6-list")
    records = graphs.scan_gap(text.splitlines(), args.gap_tol)
    gaps = [r for r in records if r.gap]
    errors = [r for r in records if r.error]
    payload = {
        "counts": {
            "scanned": len(records),
            "gap": len(gaps),
            "errors": len(errors),
        },
        "gap_graphs": [_jsonable(r) for r in gaps],
        "errors": [_jsonable(r) for r in errors],
    }
    if args.full:
        payload["records"] = [_jsonable(r) for r in records]
    verify = None
    if ctx.verify:
        verify = {"ok": True}
        consistent = all(
            r.gap == (r.sigma < 1.0 + 1.0 / (r.omega - 1) - args.gap_tol)
            for r in records
            if r.error is None and r.omega and r.omega > 1
        )
        certificates.record(verify, "gap_flags_consistent", consistent)
    return payload, EXIT_MEMBER, verify


def _run_srg_catalog(args, ctx: Context):
    ctx.digest_bytes("srg-catalog", b"-")
    rows = []
    verify = {"ok": True} if ctx.verify else None
    for name in graphs.SRG_TABLE:
        G = graphs.catalog(name)
        p = G.srg
        exact = graphs.srg_sigma(p)
        value = float(exact)
        om = graphs.clique_number(G)
        threshold = 1.0 + 1.0 / (om - 1)
        rows.append(
            {
                "name": name,
                "n": p.n,
                "k": p.k,
                "lambda": p.lambda_c,
                "mu": p.mu,
                "sigma": value,
                "sigma_exact": _jsonable(exact if isinstance(exact, Fraction) else None),
                "omega": om,
                "clique_threshold": threshold,
                "gap": bool(value < threshold - 1e-6),
            }
        )
        if verify is not None:
            # the row's sigma against the certificate the library issues
            res = graphs.sigma(G, tol=ctx.tol)
            rep = certificates.check(res, G, ctx.tol)
            certificates.record(verify, f"{name}.certificate", rep["ok"])
            certificates.record(verify, f"{name}.value",
                                abs(value - res.value) <= 1e-9)
    return {"rows": rows}, EXIT_MEMBER, verify


def _run_dicke_ext(args, ctx: Context):
    P = load_matrix(args.P, ctx, "dicke-P", allow_complex=False)
    try:
        v = quantum.dicke_extendibility(P, args.r, ctx.tol)
    except (quantum.UnsupportedLevel, cones.SizeLimit) as exc:
        raise UsageError(str(exc)) from None
    payload = _verdict_payload(v)
    payload["r"] = args.r
    verify = certificates.check(v, P, ctx.tol) if ctx.verify else None
    return payload, _STATUS_CODE[v.status], verify


def _run_witness(args, ctx: Context):
    M = load_matrix(args.M, ctx, "witness-M", allow_complex=False)
    N = load_matrix(args.N, ctx, "witness-N", allow_complex=False)
    try:
        W = quantum.witness_from_cop(
            M, N, level=args.level, tol=ctx.tol, effort=ctx.effort, seed=ctx.seed
        )
    except quantum.LevelNotCertified as exc:
        payload = {"status": "FAIL", "reason": str(exc)}
        return payload, EXIT_NON_MEMBER, ({"ok": True} if ctx.verify else None)
    except ValueError as exc:  # DiagonalMismatch included
        raise UsageError(str(exc)) from None
    payload = {
        "status": "member",
        "level": W.level,
        "pair": {"A": _jsonable(W.pair.A), "B": _jsonable(W.pair.B)},
        "membership": _verdict_payload(W.membership),
    }
    code = EXIT_MEMBER
    if args.eval is not None:
        P = load_matrix(args.eval, ctx, "witness-eval", allow_complex=False)
        val = W.evaluate(P)
        payload["evaluation"] = {
            "pairing": val,
            "detects": bool(W.detects(P, ctx.tol)),
        }
    verify = None
    if ctx.verify:
        verify = certificates.check(W.membership, M, ctx.tol)
        diag_gap = float(np.max(np.abs(np.diag(M) - np.diag(N))))
        certificates.record(verify, "diagonal_match", diag_gap <= 1e-12)
        if args.eval is not None:
            P = load_matrix(args.eval, ctx, "witness-eval-recheck")
            gap = abs(inner(np.real(P), M) - payload["evaluation"]["pairing"])
            certificates.record(verify, "pairing_recomputed", gap <= 1e-9)
    return payload, code, verify


def _run_markov_choi(args, ctx: Context):
    A = load_matrix(args.A, ctx, "markov-A", allow_complex=False)
    try:
        v = quantum.markov_choi_check(A, ctx.tol, ctx.effort, ctx.seed)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    payload = _verdict_payload(v)
    verify = None
    if ctx.verify:
        pair = pairwise.pair_form(
            A, np.diag(np.diag(A)) - (np.ones_like(A) - np.eye(A.shape[0]))
        )
        verify = certificates.check(v, pair, ctx.tol)
    return payload, _STATUS_CODE[v.status], verify


# ---------------------------------------------------------------------------
# argument grammar and entry point


def build_parser() -> _Parser:
    parser = _Parser(prog="conekit", description=__doc__.splitlines()[0])
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--tol", type=float, default=1e-7)
    common.add_argument(
        "--effort", choices=("fast", "default", "thorough"), default="default"
    )
    common.add_argument("--verify", action="store_true")
    common.add_argument("--out", default=None)
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("cone-check", parents=[common])
    p.add_argument(
        "--cone",
        required=True,
        choices=("cp", "dnn", "spn", "cop", "kr", "kr-dual"),
    )
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--level", type=int, default=None)
    p.set_defaults(handler=_run_cone_check)

    p = sub.add_parser("pair-check", parents=[common])
    p.add_argument(
        "--cone",
        required=True,
        choices=("copcp", "pdec", "pcp", "pdnn", "cldui+"),
    )
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.set_defaults(handler=_run_pair_check)

    p = sub.add_parser("sigma", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument(
        "--strategy",
        choices=("auto", "sdp"),
        default="auto",
    )
    p.set_defaults(handler=_run_sigma)

    p = sub.add_parser("classify-map", parents=[common])
    p.add_argument("--graph", required=True)
    p.set_defaults(handler=_run_classify_map)

    p = sub.add_parser("scan-gap", parents=[common])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--gap-tol", type=float, default=1e-6)
    p.add_argument("--full", action="store_true")
    p.set_defaults(handler=_run_scan_gap)

    p = sub.add_parser("srg-catalog", parents=[common])
    p.set_defaults(handler=_run_srg_catalog)

    p = sub.add_parser("dicke-ext", parents=[common])
    p.add_argument("--P", required=True)
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(handler=_run_dicke_ext)

    p = sub.add_parser("witness", parents=[common])
    p.add_argument("--M", required=True)
    p.add_argument("--N", required=True)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--eval", default=None)
    p.set_defaults(handler=_run_witness)

    p = sub.add_parser("markov-choi", parents=[common])
    p.add_argument("--A", required=True)
    p.set_defaults(handler=_run_markov_choi)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "handler", None) is None:
        print("usage error: a subcommand is required", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        effort = Effort.of(args.effort)
        if not (np.isfinite(args.tol) and args.tol > 0):
            raise ValueError(f"--tol must be finite and positive, got {args.tol}")
        if args.seed < 0:
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ctx = Context(
        seed=args.seed,
        tol=Tolerance(eig_tol=args.tol / 10.0, feas_tol=args.tol),
        effort=effort,
        verify=args.verify,
        hasher=hashlib.sha256(),
    )
    started = time.perf_counter()
    try:
        result, code, verify = args.handler(args, ctx)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as exc:
        result = {"status": "STALLED", "reason": str(exc)}
        code, verify = EXIT_UNKNOWN, None
    report = {
        "schema": 1,
        "command": [args.subcommand] + [a for a in argv if a != args.subcommand],
        "subcommand": args.subcommand,
        "inputs_digest": "sha256:" + ctx.hasher.hexdigest(),
        "seed": ctx.seed,
        "effort": ctx.effort.name,
        "tolerances": {
            "feas_tol": ctx.tol.feas_tol,
            "eig_tol": ctx.tol.eig_tol,
        },
        "wall_time_s": round(time.perf_counter() - started, 6),
        "result": result,
        "exit_code": code,
    }
    if verify is not None:
        report["verify"] = verify
        if not verify.get("ok", False):
            report["exit_code"] = code = EXIT_UNKNOWN
    text = json.dumps(report, indent=2, allow_nan=False)
    print(text)
    if args.out:
        try:
            Path(args.out).write_text(text + "\n")
        except OSError as exc:
            print(f"usage error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    raise SystemExit(main())
