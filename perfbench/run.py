#!/usr/bin/env python3
"""Certified-verdict throughput benchmark for conekit.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs one workload (pair_chain, gap_scan, sos_levels, cli_cold) as a closed
loop with a single caller: each item starts only after the previous one has
finished.  Items are grouped in passes; the run keeps starting passes while
the mean pass still fits in ``--seconds`` and always runs at least one.
Output gates and the verdict reference check run after the timed region.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics; with ``--trace 1`` the run measures half the time
untraced and half traced over the same items, and reports per-layer metrics
from spans recorded around the public functions of each conekit layer.  The
exit code is 0 when every gate passed, 1 when one failed, and 2 when the
run could not start (no conekit sources next to the benchmark).

``--quick`` runs a single short pass without set-up probes (for the
self-test); ``--setup-probe`` only sets up and prints the set-up time.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 3          # the run's own set-up plus two fresh probe processes
NAMES = ("pair_chain", "gap_scan", "sos_levels", "cli_cold")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true")
    p.add_argument("--setup-probe", action="store_true")
    return p.parse_args(argv)


def blas_threads() -> int:
    """OpenBLAS's own default, set explicitly so children inherit it."""
    n = len(os.sched_getaffinity(0))
    os.environ["OPENBLAS_NUM_THREADS"] = str(n)
    return n


def import_conekit():
    src = ROOT / "src"
    if not (src / "conekit" / "__init__.py").is_file():
        print(f"perfbench: no conekit sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import conekit
    return conekit


def load_reference(name: str) -> dict:
    return json.loads((HERE / "reference" / f"{name}.json").read_text())


# ---------------------------------------------------------------------------


class Record:
    __slots__ = ("item", "latency", "out", "error")

    def __init__(self, item, latency, out, error):
        self.item, self.latency, self.out, self.error = item, latency, out, error


def measure(wl, budget: float, tracer=None):
    """Closed loop over whole passes; returns (records, wall, passes) with
    (items, seconds) per pass."""
    records, passes = [], []
    min_passes = getattr(wl, "min_passes", 1)
    start = time.perf_counter()
    for items in wl.passes():
        p0 = time.perf_counter()
        for item in items:
            if tracer is not None:
                tracer.item = len(records)
            t = time.perf_counter()
            try:
                out, error = wl.run_item(item), None
            except Exception as exc:  # an item that raises is a failed item
                out, error = None, f"{type(exc).__name__}: {exc}"
            records.append(Record(item, time.perf_counter() - t, out, error))
        passes.append((len(items), time.perf_counter() - p0))
        mean_pass = statistics.fmean(t for _, t in passes)
        if (len(passes) >= min_passes
                and time.perf_counter() - start + mean_pass > budget):
            break
    return records, time.perf_counter() - start, passes


def rate(passes) -> float:
    """Items per second, as the median over passes: a stretch in which the
    machine is slow moves it less than the run's overall mean."""
    return statistics.median(n / t for n, t in passes)


def gate(wl, records):
    """Runs every output gate; returns (failures, verdicts, unknowns, failed
    items).  Verdicts of items that raised are not counted."""
    failures, verdicts, unknowns, failed = [], 0, 0, 0
    for rec in records:
        bad = [rec.error] if rec.error else []
        if not rec.error:
            try:
                bad = wl.check(rec.item, rec.out)
            except Exception as exc:  # a certificate the gate cannot read
                bad = [f"gate raised {type(exc).__name__}: {exc}"]
            status = wl.statuses(rec.item, rec.out)
            verdicts += len(status)
            unknowns += sum(v == "unknown" for v in status.values())
        if bad:
            failed += 1
            failures.append(f"{rec.item}: " + "; ".join(bad))
    if hasattr(wl, "check_all"):
        failures += wl.check_all([(r.item, r.out) for r in records
                                  if not r.error])
    return failures, verdicts, unknowns, failed


def tail(latencies):
    """The highest percentile with at least ten samples beyond it (below
    twenty samples it is not above the median); with fewer than eleven
    samples no percentile qualifies and the maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def setup_probes(args) -> list:
    from workloads import run_child
    times = []
    for _ in range(SETUP_RUNS - 1):
        res = run_child([sys.executable, str(HERE / "run.py"), "--workload",
                         args.workload, "--seed", str(args.seed), "--seconds",
                         "0", "--setup-probe"], ROOT, dict(os.environ))
        if res["code"] != 0:
            raise RuntimeError(f"set-up probe failed: {res['stderr'][-500:]}")
        times.append(json.loads(res["stdout"].splitlines()[-1])["setup_s"])
    return times


def blas_runtime() -> dict:
    """Thread count and build string reported by numpy's OpenBLAS itself."""
    import ctypes
    import numpy as np
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("libscipy_openblas*.so"))
    if not libs:
        return {}
    lib = ctypes.CDLL(str(libs[0]))
    out = {}
    for key, name, restype in (
            ("threads", "scipy_openblas_get_num_threads64_", ctypes.c_int),
            ("config", "scipy_openblas_get_config64_", ctypes.c_char_p)):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            val = fn()
            out[key] = val.decode() if isinstance(val, bytes) else val
    return out


def environment(nthreads: int) -> dict:
    import numpy as np
    import scipy
    cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() or commit
    digest = hashlib.sha256()
    for f in sorted((ROOT / "src" / "conekit").glob("*.py")):
        digest.update(f.name.encode() + f.read_bytes())
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas": cfg.get("name"), "blas_version": cfg.get("version"),
            "blas_threads": nthreads, "blas_runtime": blas_runtime(),
            "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "commit": commit, "source_sha256": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------


def cli_layer(records) -> dict:
    """cli.* from the reports and fresh-import probes (cli_cold only)."""
    from workloads import child_env, run_child
    env = child_env(ROOT)
    probe = ("import time; t = time.perf_counter(); import conekit.cli; "
             "print(time.perf_counter() - t)")
    imports = []
    for _ in range(SETUP_RUNS):
        res = run_child([sys.executable, "-c", probe], ROOT, env)
        imports.append(float(res["stdout"].split()[-1]))
    ok = [r for r in records if not r.error and r.out["report"]]
    work = [r.out["report"]["wall_time_s"] for r in ok]
    over = [r.out["wall_s"] - r.out["report"]["wall_time_s"] for r in ok]
    petersen = [r.out["wall_s"] for r in ok if r.item[0] == "sigma-petersen"]
    return {"cli.import_s": statistics.median(imports),
            "cli.work_s": statistics.median(work),
            "cli.overhead_s": statistics.median(over),
            "roadmap.cold_sigma_petersen_s": statistics.median(petersen)}


def roadmap_rows(tracer, untraced_passes, wl) -> dict:
    """The ROADMAP baseline rows that fall inside this workload (0 elsewhere)."""
    sp = tracer.spans
    solved = {s.parent for s in sp if s.name == "optim.solve_sdp"}
    pdec = [sp[i].dur for i in solved if sp[i].name == "pairwise.is_pdec"]
    kr2 = [s.dur for s in sp if s.name == "cones.is_kr" and s.attrs["r"] == 2]
    return {
        "roadmap.is_pdec_n5_s": statistics.fmean(pdec) if pdec else 0.0,
        "roadmap.criterion6_scan_s": (
            sum(t for _, t in untraced_passes[:len(wl.chunks)])
            if wl.name == "gap_scan" else 0.0),
        "roadmap.is_kr_r2_n8_s": statistics.fmean(kr2) if kr2 else 0.0,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    nthreads = blas_threads()
    import_conekit()
    import workloads

    reference = load_reference(args.workload)
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed, reference,
                                            args.quick)
    try:
        wl.setup()
        setup = [time.perf_counter() - T0]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        budget = 0.0 if args.quick else args.seconds
        if args.trace:
            result = traced_run(args, wl, budget)
        else:
            result = untraced_run(args, wl, budget, setup)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    result["environment"] = environment(nthreads)
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        (OUT_DIR / f"spans-{stem}.json").write_text(json.dumps(spans))
    (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  environment {json.dumps(result['environment'])}")
    for line in result["notes"]:
        print(line)
    for fail in result["failures"][:20]:
        print("GATE FAILED", fail)
    for name, m in result["metrics"].items():
        print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0 if result["correct"] else 1


def untraced_run(args, wl, budget, setup) -> dict:
    records, wall, passes = measure(wl, budget)
    key = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" \
        else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(key).ru_maxrss / 1024.0
    if not args.quick:
        setup += setup_probes(args)
    failures, verdicts, unknowns, failed = gate(wl, records)
    lat = [r.latency for r in records]
    tail_s, pct, beyond = tail(lat)
    unknown_frac = unknowns / verdicts if verdicts else 1.0
    error_frac = failed / len(records)
    metrics = {
        "items_per_s": (rate(passes), "1/s"),
        "item_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "item_tail_ms": (1e3 * tail_s, "ms"),
        "decided_frac": (1.0 - unknown_frac, "fraction"),
        "clean_frac": (1.0 - error_frac, "fraction"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    notes = [
        f"items {len(records)} in {wall:.3f} s over {len(passes)} passes "
        f"(closed loop, one caller); items_per_s is the median pass rate",
        f"item_p50_ms over {len(lat)} samples; item_tail_ms is "
        f"p{pct:.1f} with {beyond} samples beyond it",
        f"unknown_frac {unknown_frac:.4f} ({unknowns} of {verdicts} verdicts); "
        f"error_frac {error_frac:.4f} ({failed} of {len(records)} items)",
        f"setup_s median of {len(setup)}: "
        + ", ".join(f"{s:.3f}" for s in setup),
    ]
    return {"correct": not failures, "attempted": len(records),
            "failed": failed, "failures": failures, "notes": notes,
            "unknown_frac": unknown_frac, "error_frac": error_frac,
            "items": [[str(r.item), r.latency] for r in records],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def traced_run(args, wl, budget) -> dict:
    from tracer import Tracer, layer_metrics
    plain, plain_wall, plain_passes = measure(wl, budget / 2)
    tracer = Tracer()
    tracer.install()
    try:
        traced, wall, passes = measure(wl, budget / 2, tracer)
    finally:
        tracer.uninstall()
    failures, _, _, failed = gate(wl, plain + traced)
    layer = layer_metrics(tracer, wall, len(traced))
    traced_rate, plain_rate = rate(passes), rate(plain_passes)
    layer["trace.items_per_s"] = traced_rate
    layer["trace.untraced_items_per_s"] = plain_rate
    layer["trace.overhead_frac"] = plain_rate / traced_rate - 1.0
    layer.update(roadmap_rows(tracer, plain_passes, wl))
    if args.workload == "cli_cold":
        layer.update(cli_layer(plain + traced))
    else:
        layer.update({"cli.import_s": 0.0, "cli.work_s": 0.0,
                      "cli.overhead_s": 0.0,
                      "roadmap.cold_sigma_petersen_s": 0.0})
    notes = [f"untraced: {len(plain)} items in {plain_wall:.3f} s; "
             f"traced: {len(traced)} items in {wall:.3f} s, "
             f"{len(tracer.spans)} spans"]
    return {"correct": not failures, "attempted": len(plain) + len(traced),
            "failed": failed, "failures": failures, "notes": notes,
            "spans": tracer.to_json(),
            "metrics": {k: {"value": v, "unit": unit_of(k)}
                        for k, v in sorted(layer.items())}}


RATIOS = ("share", "hit_ratio", "decided_ratio", "sdp_ratio",
          "accounted_share", "overhead_frac", "per_item")


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("items_per_s"):
        return "1/s"
    if leaf == "ms_per_iter":
        return "ms"
    if leaf.endswith("_s"):
        return "s"
    return "ratio" if leaf in RATIOS else "count"


if __name__ == "__main__":
    raise SystemExit(main())
