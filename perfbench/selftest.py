#!/usr/bin/env python3
"""Quick self-test of the benchmark harness.

    python3 perfbench/selftest.py

For every workload: a ``--quick`` run (one short pass) must exit 0 and print
exactly the end-to-end metrics named in BENCHMARK.json; the same items,
gated against a reference with one planted wrong verdict, must fail the
gate.  A quick traced run must print exactly the per-layer metrics, and a
copy of the benchmark without the conekit sources must exit non-zero
without printing a result.
"""

import json
import shutil
import subprocess
import sys

from run import HERE, NAMES, ROOT, blas_threads, gate, import_conekit, \
    load_reference, measure

blas_threads()
import_conekit()

import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_quick(cwd, workload, trace):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           workload, "--seed", str(SEED), "--seconds", "1",
                           "--trace", str(trace), "--quick"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def check_contract(workload, trace) -> None:
    res = run_quick(ROOT, workload, trace)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
    last = json.loads(res.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last
    assert last["correct"] is True and last["failed"] == 0, last
    want = {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    assert got == want, (sorted(set(got) ^ set(want)), got)


def plant(wl, item) -> None:
    """Flip the reference verdict of one item the quick pass ran."""
    if isinstance(wl, W.PairChain):
        ref = wl.ref[str(item)]
        ref["cldui"] = not ref["cldui"]
    elif isinstance(wl, W.GapScan):
        wl.gaps ^= {wl.lines[item]}
    elif isinstance(wl, W.SosLevels):
        ref = wl.ref[wl.key(item)]
        k = next(iter(ref.keys() - {"scale"}))
        ref[k] = {"member": "non_member"}.get(ref[k], "member")
    else:
        codes = wl.ref["exit_codes"]
        codes[item[0]] = 1 - codes[item[0]]


def check_planted(workload) -> None:
    wl = W.WORKLOADS[workload](ROOT, SEED, load_reference(workload), True)
    try:
        wl.setup()
        records, _, _ = measure(wl, 0.0)
    finally:
        if hasattr(wl, "cleanup"):
            wl.cleanup()
    failures = gate(wl, records)[0]
    assert not failures, failures
    item = next(r.item for r in records
                if not isinstance(wl, W.SosLevels) or r.item[0] != "fee")
    plant(wl, item)
    assert gate(wl, records)[0], f"{workload}: planted verdict not caught"


def check_bare_copy() -> None:
    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        res = run_quick(bare, "pair_chain", 0)
        assert res.returncode != 0, res.stdout
        assert '"metrics"' not in res.stdout, res.stdout
    finally:
        shutil.rmtree(bare)


def main() -> int:
    for name in NAMES:
        check_contract(name, 0)
        check_planted(name)
        print(f"{name}: quick run and planted reference flip OK", flush=True)
    check_contract("pair_chain", 1)
    print("pair_chain: traced quick run OK")
    check_bare_copy()
    print("bare copy without sources exits non-zero OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
