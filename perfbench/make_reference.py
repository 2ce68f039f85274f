#!/usr/bin/env python3
"""Record the verdict reference of every pool item the benchmark can draw.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Writes ``perfbench/reference/<workload>.json``.  Run it only on a commit
whose verdicts are trusted: the benchmark fails a run whose verdict flips
between member and non_member against these files.  For every scaled pool
input it also records whether the unscaled input got the same verdicts.
"""

import json
import shutil
import sys

from run import HERE, NAMES, blas_threads, import_conekit

blas_threads()
import_conekit()

import workloads as W  # noqa: E402
from conekit import cones, graphs, quantum  # noqa: E402
from tracer import copcp_route  # noqa: E402

OUT = HERE / "reference"


def pair_chain() -> dict:
    pairs, same = {}, []
    for i in range(W.PAIR_POOL):
        style, scale, A, B = W.make_pair(i)
        out = W.chain(W.pw.pair_form(A, B))
        pairs[str(i)] = {"style": style, "scale": scale, "cldui": bool(out[1]),
                         "copcp_route": copcp_route(out[3]),
                         **W.chain_statuses(out)}
        if scale != 1.0:
            plain = W.chain(W.pw.pair_form(A / scale, B / scale))
            same.append(W.chain_statuses(plain) == W.chain_statuses(out))
    return {"pairs": pairs,
            "scaled_pairs": len(same), "scaled_same_verdicts": sum(same)}


def gap_scan() -> dict:
    wl = W.GapScan(HERE.parent, 0, {"gap_graphs": [], "gap_counts": {}}, False)
    recs = graphs.scan_gap(wl.lines)
    assert not [r for r in recs if r.error]
    gaps = sorted(r.graph6 for r in recs if r.gap)
    counts = {str(n): sum(r.gap and r.n == n for r in recs) for n in (5, 6, 7)}
    return {"gap_graphs": gaps, "gap_counts": counts}


def sos_levels() -> dict:
    items, same = {}, []
    for r, n in W.KR_SHAPES:
        for member in (True, False):
            for idx in range(W.SOS_VARIANTS):
                scale, M = W.make_kr(r, n, member, idx)
                v = cones.is_kr(M, r)
                key = W.SosLevels.key(("kr", r, n, member, idx))
                items[key] = {"kr": v.status.value, "scale": scale}
                if scale != 1.0:
                    same.append(cones.is_kr(M / scale, r).status is v.status)
    for r in (3, 4):
        for v in range(W.DICKE_VARIANTS):
            s = W.variant_scale(W.DICKE_BASE, v)
            P = cones.berman_matrix().astype(float) * s
            items[W.SosLevels.key(("dicke", r, v))] = {
                "dicke": quantum.dicke_extendibility(P, r).status.value,
                "scale": s}
    quantum.find_extendible_entangled(5, 3)
    items["fee"] = {"found": "member"}
    return {"items": items, "scaled_kr": len(same),
            "scaled_kr_same_verdicts": sum(same)}


def cli_cold() -> dict:
    root = HERE.parent
    workdir = root / ".perfbench_tmp" / "reference"
    W.CliCold.write_inputs(workdir, range(W.HORN_VARIANTS),
                           range(W.DICKE_VARIANTS), range(W.CLI_PAIRS))
    env = W.child_env(root)
    codes = {}
    for v in range(W.CLI_PAIRS):
        cmds = W.CliCold.command_list(v % W.HORN_VARIANTS,
                                      v % W.DICKE_VARIANTS, v)
        for key, argv in cmds:
            if key not in codes:
                out = W.run_cli(argv, workdir, env)
                assert out["report"] is not None, out["stderr"]
                codes[key] = out["code"]
    shutil.rmtree(workdir)
    return {"exit_codes": codes}


def main(names) -> None:
    OUT.mkdir(exist_ok=True)
    for name in names or NAMES:
        doc = globals()[name]()
        (OUT / f"{name}.json").write_text(json.dumps(doc, indent=1,
                                                     sort_keys=True) + "\n")
        print(name, {k: v for k, v in doc.items() if not isinstance(v, dict)
                     and not isinstance(v, list)})


if __name__ == "__main__":
    main(sys.argv[1:])
