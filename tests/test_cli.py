import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import conekit
from conekit import cones, graphs
from conekit.certificates import _verify_cone_verdict, _verify_sigma_certificate
from conekit.cli import main
from conekit.cones import berman_matrix, horn_matrix
from conekit.linalg import Tolerance


def write_matrix(path, M):
    M = np.asarray(M)
    doc = {"n": M.shape[0]}
    if np.iscomplexobj(M):
        doc["re"] = M.real.tolist()
        doc["im"] = M.imag.tolist()
    else:
        doc["real"] = M.tolist()
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    report = json.loads(out) if out.strip() else None
    return code, report


@pytest.fixture
def horn_file(tmp_path):
    return write_matrix(tmp_path / "horn.json", horn_matrix())


@pytest.fixture
def berman_file(tmp_path):
    return write_matrix(tmp_path / "berman.json", berman_matrix())


# ---------------------------------------------------------------------------
# report shape


def test_report_schema_and_echo(capsys, horn_file):
    code, rep = run(capsys, "cone-check", "--cone", "spn", "--in", horn_file)
    assert code == 1
    assert rep["schema"] == 1
    assert rep["subcommand"] == "cone-check"
    assert "--cone" in rep["command"]
    assert rep["inputs_digest"].startswith("sha256:")
    assert rep["seed"] == 0
    assert rep["effort"] == "default"
    assert rep["tolerances"]["feas_tol"] == pytest.approx(1e-7)
    assert rep["wall_time_s"] >= 0
    assert rep["exit_code"] == 1
    assert rep["result"]["status"] == "non_member"


def test_report_is_reproducible(capsys, berman_file):
    _, first = run(
        capsys, "cone-check", "--cone", "kr-dual", "--level", "1",
        "--in", berman_file, "--seed", "7",
    )
    _, second = run(
        capsys, "cone-check", "--cone", "kr-dual", "--level", "1",
        "--in", berman_file, "--seed", "7",
    )
    assert first["result"]["status"] == second["result"]["status"]
    assert first["result"]["value"] == pytest.approx(
        second["result"]["value"], abs=1e-9
    )
    assert first["inputs_digest"] == second["inputs_digest"]


def test_out_flag_writes_identical_report(capsys, tmp_path, horn_file):
    target = tmp_path / "report.json"
    code, rep = run(
        capsys, "cone-check", "--cone", "cop", "--in", horn_file,
        "--out", str(target),
    )
    assert code == 0
    on_disk = json.loads(target.read_text())
    assert on_disk == rep


# ---------------------------------------------------------------------------
# cone-check


def test_cone_check_cop_member_level_one(capsys, horn_file):
    code, rep = run(capsys, "cone-check", "--cone", "cop", "--in", horn_file)
    assert code == 0
    assert rep["result"]["status"] == "member"
    assert rep["result"]["level"] == 1


def test_cone_check_spn_refutation(capsys, horn_file):
    code, rep = run(
        capsys, "cone-check", "--cone", "spn", "--in", horn_file, "--verify"
    )
    assert code == 1
    assert rep["verify"]["ok"] is True
    assert rep["result"]["certificate"]["pairing"] < -0.2


def test_cone_check_cp_refutation_verified(capsys, berman_file):
    code, rep = run(
        capsys, "cone-check", "--cone", "cp", "--in", berman_file, "--verify"
    )
    assert code == 1
    assert rep["result"]["certificate"]["kind"] == "cycle-scaled"
    assert rep["verify"]["ok"] is True


def test_cone_check_dnn(capsys, berman_file, tmp_path):
    code, rep = run(capsys, "cone-check", "--cone", "dnn", "--in", berman_file)
    assert code == 0
    neg = write_matrix(tmp_path / "neg.json", -np.eye(3))
    code2, rep2 = run(capsys, "cone-check", "--cone", "dnn", "--in", neg)
    assert code2 == 1


def test_cone_check_kr_requires_level(capsys, horn_file):
    code = main(["cone-check", "--cone", "kr", "--in", horn_file])
    assert code == 64


def test_cone_check_kr_levels(capsys, horn_file):
    code0, rep0 = run(
        capsys, "cone-check", "--cone", "kr", "--level", "0", "--in", horn_file
    )
    assert code0 == 1
    code1, rep1 = run(
        capsys, "cone-check", "--cone", "kr", "--level", "1", "--in", horn_file,
        "--verify",
    )
    assert code1 == 0
    assert rep1["verify"]["ok"] is True


def test_cone_check_kr_dual_verified(capsys, berman_file):
    code, rep = run(
        capsys, "cone-check", "--cone", "kr-dual", "--level", "1",
        "--in", berman_file, "--verify",
    )
    assert code == 1
    assert rep["result"]["value"] == pytest.approx(-0.0116005908, abs=1e-6)
    assert rep["verify"]["ok"] is True


# ---------------------------------------------------------------------------
# pair-check


def reflection_pair(tmp_path):
    rng = np.random.default_rng(5)
    N = np.abs(rng.normal(size=(5, 5)))
    N = (N + N.T) / 2
    np.fill_diagonal(N, 0.0)
    a = write_matrix(tmp_path / "refl_a.json", N)
    b = write_matrix(tmp_path / "refl_b.json", -N)
    return a, b


def test_pair_check_chain_on_reflection_pair(capsys, tmp_path):
    a, b = reflection_pair(tmp_path)
    for cone, expected in (
        ("copcp", 0),
        ("pdec", 0),
        ("cldui+", 1),
        ("pdnn", 1),
        ("pcp", 1),
    ):
        code, rep = run(
            capsys, "pair-check", "--cone", cone, "--A", a, "--B", b, "--verify"
        )
        assert code == expected, cone
        assert rep["verify"]["ok"] is True, cone


def test_pair_check_complex_b(capsys, tmp_path):
    rng = np.random.default_rng(6)
    G = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = G @ G.conj().T
    A = np.abs(rng.normal(size=(4, 4))) + np.diag(np.real(np.diag(B)))
    np.fill_diagonal(A, np.real(np.diag(B)))
    a = write_matrix(tmp_path / "ca.json", A)
    b = write_matrix(tmp_path / "cb.json", B)
    code, rep = run(capsys, "pair-check", "--cone", "cldui+", "--A", a, "--B", b)
    assert code == 0
    assert rep["result"]["certificate"]["min_eig_B"] > -1e-8


def test_pair_check_diagonal_mismatch_is_usage_error(capsys, tmp_path):
    a = write_matrix(tmp_path / "da.json", np.eye(3))
    b = write_matrix(tmp_path / "db.json", 2 * np.eye(3))
    code = main(["pair-check", "--cone", "copcp", "--A", a, "--B", b])
    assert code == 64


def test_pair_check_complex_diagonal_is_usage_error(capsys, tmp_path):
    B = np.eye(3, dtype=complex)
    B[0, 0] += 1e-6j
    a = write_matrix(tmp_path / "ca.json", np.eye(3))
    b = write_matrix(tmp_path / "cb.json", B)
    code = main(["pair-check", "--cone", "copcp", "--A", a, "--B", b])
    assert code == 64
    assert "diagonal of B must be real" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# graph commands


def test_sigma_named_graph(capsys):
    code, rep = run(capsys, "sigma", "--graph", "petersen")
    assert code == 0
    assert rep["result"]["value"] == pytest.approx(1.666667, abs=1e-6)
    assert rep["result"]["provenance"] == "srg-closed-form"


def test_sigma_graph6_copy_takes_the_srg_closed_form(capsys):
    g6 = graphs.catalog("petersen").to_graph6()
    code, rep = run(capsys, "sigma", "--graph", f"g6:{g6}", "--verify")
    assert code == 0
    assert rep["result"]["provenance"] == "srg-closed-form"
    assert rep["verify"]["ok"]


def test_sigma_case_insensitive_and_strategies_agree(capsys):
    _, by_name = run(capsys, "sigma", "--graph", "PETERSEN")
    _, by_sdp = run(capsys, "sigma", "--graph", "petersen", "--strategy", "sdp")
    assert by_name["result"]["value"] == pytest.approx(
        by_sdp["result"]["value"], abs=1e-6
    )
    assert by_sdp["result"]["provenance"] == "sdp"


def test_sigma_coloring_route_verifies(capsys):
    code, rep = run(capsys, "sigma", "--graph", "g6:C}", "--verify")
    assert code == 0
    assert rep["result"]["provenance"] == "coloring-closed-form"
    assert rep["result"]["value"] == 1.5
    assert rep["verify"]["ok"]
    assert rep["verify"]["coloring_proper"] and rep["verify"]["clique_complete"]


def test_sigma_checker_rejects_understated_value():
    # any t below sigma splits (the excess t A moves into E), so only the
    # dual witness's <J, X> can pin the reported value
    G = graphs.catalog("petersen")
    res = graphs.sigma(G)
    assert _verify_sigma_certificate(G, res, Tolerance())["ok"]
    delta = 0.009
    forged = dataclasses.replace(
        res,
        value=res.value - delta,
        certificate={**res.certificate,
                     "E": res.certificate["E"] + delta * G.adjacency},
    )
    rep = _verify_sigma_certificate(G, forged, Tolerance())
    assert rep["split_residual"] and rep["E_nonneg"]
    assert rep["X_value"] is False
    assert rep["ok"] is False


def test_kr_non_member_checks_normalization_and_singles():
    M = horn_matrix()
    v = cones.is_kr(M, 0)
    assert v.status is cones.Verdict.NON_MEMBER
    cert = v.certificate
    rep = _verify_cone_verdict(v, M, Tolerance())
    assert rep["ok"] and rep["normalization_positive"]
    assert rep["moment_singles_nonneg"]
    flipped = dataclasses.replace(
        v, certificate={**cert, "normalization": -cert["normalization"]}
    )
    rep = _verify_cone_verdict(flipped, M, Tolerance())
    assert rep["normalization_positive"] is False and rep["ok"] is False
    singles = cert["moment_blocks"]["singles"].copy()
    singles[0] = -1e-3
    bad = dataclasses.replace(
        v, certificate={**cert, "moment_blocks": {**cert["moment_blocks"],
                                                  "singles": singles}}
    )
    rep = _verify_cone_verdict(bad, M, Tolerance())
    assert rep["moment_singles_nonneg"] is False and rep["ok"] is False


def test_sigma_inline_graph6_pentagon(capsys):
    code, rep = run(capsys, "sigma", "--graph", "g6:DqK", "--verify")
    assert code == 0
    assert rep["result"]["value"] == pytest.approx(
        1.0 + np.cos(np.pi / 5), abs=1e-9
    )
    assert rep["verify"]["ok"] is True


def test_sigma_graph_file(capsys, tmp_path):
    p = tmp_path / "one.g6"
    p.write_text("DqK\n")
    code, rep = run(capsys, "sigma", "--graph", str(p))
    assert code == 0
    assert rep["result"]["graph"]["n"] == 5


def test_classify_map_pentagon(capsys):
    code, rep = run(capsys, "classify-map", "--graph", "c5", "--verify")
    assert code == 0
    th = rep["result"]["thresholds"]
    assert th["t_cp"] == pytest.approx(0.5)
    assert th["t_ccp"] == pytest.approx(1.0)
    assert th["t_dec"] == pytest.approx(1.809017, abs=1e-6)
    assert th["t_pos"] == pytest.approx(2.0)
    assert rep["verify"]["ok"] is True
    assert rep["verify"]["X_value"] is True


def test_sigma_cycle_verifies(capsys):
    code, rep = run(capsys, "sigma", "--graph", "c7", "--verify")
    assert code == 0
    assert rep["result"]["provenance"] == "cycle-closed-form"
    assert rep["verify"]["ok"] and rep["verify"]["X_value"]


def test_scan_gap_counts_and_errors(capsys, tmp_path):
    f = tmp_path / "list.g6"
    f.write_text("DqK\nD~{\nnot-a-graph\n\nBW\n")
    code, rep = run(capsys, "scan-gap", "--in", str(f), "--verify")
    assert code == 0
    counts = rep["result"]["counts"]
    assert counts["scanned"] == 4
    assert counts["gap"] == 1
    assert counts["errors"] == 1
    assert rep["result"]["gap_graphs"][0]["graph6"] == "DqK"
    assert rep["verify"]["ok"] is True


def test_srg_catalog_rows_and_gap_pattern(capsys):
    code, rep = run(capsys, "srg-catalog", "--verify")
    assert code == 0
    rows = {r["name"]: r for r in rep["result"]["rows"]}
    assert len(rows) == 12
    gap_names = {n for n, r in rows.items() if r["gap"]}
    assert gap_names == {
        "pentagon",
        "petersen",
        "paley13",
        "clebsch",
        "clebsch-complement",
        "paley17",
    }
    assert rows["petersen"]["sigma"] == pytest.approx(5.0 / 3.0)
    assert rep["verify"]["ok"] is True
    assert all(rep["verify"][f"{name}.certificate"] for name in rows)


def test_srg_catalog_verify_checks_the_sigma_certificates(capsys, monkeypatch):
    real = graphs.sigma

    def shifted(G, *args, **kwargs):
        res = real(G, *args, **kwargs)
        return dataclasses.replace(res, value=res.value - 0.01)

    monkeypatch.setattr(graphs, "sigma", shifted)
    code, rep = run(capsys, "srg-catalog", "--verify")
    assert rep["verify"]["ok"] is False
    assert rep["verify"]["petersen.value"] is False
    assert rep["verify"]["petersen.certificate"] is False


# ---------------------------------------------------------------------------
# quantum commands


def test_dicke_ext_levels(capsys, berman_file):
    code2, rep2 = run(
        capsys, "dicke-ext", "--P", berman_file, "--r", "2", "--verify"
    )
    assert code2 == 0
    assert rep2["verify"]["ok"] is True
    code3, rep3 = run(
        capsys, "dicke-ext", "--P", berman_file, "--r", "3", "--verify"
    )
    assert code3 == 1
    assert rep3["result"]["value"] == pytest.approx(-0.0116005908, abs=1e-6)
    assert rep3["verify"]["ok"] is True


def test_dicke_ext_bad_level_is_usage_error(capsys, berman_file):
    assert main(["dicke-ext", "--P", berman_file, "--r", "9"]) == 64


def test_witness_eval(capsys, tmp_path, horn_file, berman_file):
    H = horn_matrix()
    N = np.diag(np.diag(H)) + (np.ones((5, 5)) - np.eye(5))
    nf = write_matrix(tmp_path / "cushion.json", N)
    code, rep = run(
        capsys, "witness", "--M", horn_file, "--N", nf,
        "--eval", berman_file, "--verify",
    )
    assert code == 0
    assert rep["result"]["level"] == 1
    assert rep["result"]["evaluation"]["pairing"] == pytest.approx(3.0)
    assert rep["result"]["evaluation"]["detects"] is False
    assert rep["verify"]["ok"] is True


def test_witness_uncertified_reports_fail(capsys, tmp_path):
    m = write_matrix(tmp_path / "m.json", -np.eye(3))
    code, rep = run(capsys, "witness", "--M", m, "--N", m)
    assert code == 1
    assert rep["result"]["status"] == "FAIL"


def test_markov_choi_bracket(capsys, tmp_path):
    n = 4
    lo = write_matrix(tmp_path / "lo.json", (0.75 - 0.02) * np.ones((n, n)))
    hi = write_matrix(tmp_path / "hi.json", (0.75 + 0.02) * np.ones((n, n)))
    code_lo, rep_lo = run(capsys, "markov-choi", "--A", lo, "--verify")
    assert code_lo == 1
    assert rep_lo["verify"]["ok"] is True
    code_hi, rep_hi = run(capsys, "markov-choi", "--A", hi, "--verify")
    assert code_hi == 0
    assert rep_hi["verify"]["ok"] is True


def test_markov_choi_negative_entry_is_usage_error(capsys, tmp_path):
    bad = write_matrix(tmp_path / "bad.json", np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert main(["markov-choi", "--A", bad]) == 64


# ---------------------------------------------------------------------------
# usage errors


def test_malformed_json_reports_line_and_column(capsys, tmp_path, monkeypatch):
    p = tmp_path / "broken.json"
    p.write_text('{"n": 2,\n "real": [[1, 0], [0, }')
    code = main(["cone-check", "--cone", "spn", "--in", str(p)])
    assert code == 64
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_wrong_shape_is_usage_error(capsys, tmp_path):
    p = tmp_path / "rect.json"
    p.write_text(json.dumps({"n": 2, "real": [[1, 2, 3], [4, 5, 6]]}))
    assert main(["cone-check", "--cone", "spn", "--in", str(p)]) == 64


def test_declared_n_mismatch_is_usage_error(capsys, tmp_path):
    p = tmp_path / "misdeclared.json"
    p.write_text(json.dumps({"n": 3, "real": [[1, 0], [0, 1]]}))
    assert main(["cone-check", "--cone", "spn", "--in", str(p)]) == 64


def test_unknown_graph_is_usage_error(capsys):
    assert main(["sigma", "--graph", "never-heard-of-it"]) == 64


@pytest.mark.parametrize("strategy", ["twirl", "circulant", "srg3"])
def test_removed_sigma_strategy_is_usage_error(capsys, strategy):
    assert main(["sigma", "--graph", "c5", "--strategy", strategy]) == 64
    assert capsys.readouterr().out == ""


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 64


def test_size_limit_is_usage_error(capsys, tmp_path):
    big = write_matrix(tmp_path / "big.json", np.eye(9))
    assert main(["cone-check", "--cone", "kr", "--level", "2", "--in", big]) == 64


@pytest.mark.parametrize("argv", [
    ("sigma", "--graph", "petersen", "--tol", "nan"),
    ("sigma", "--graph", "petersen", "--tol", "-1", "--verify"),
    ("pair-check", "--cone", "pcp", "--seed", "-1"),
])
def test_bad_tol_or_seed_is_usage_error(capsys, berman_file, argv):
    if argv[0] == "pair-check":
        argv += ("--A", berman_file, "--B", berman_file)
    assert main(list(argv)) == 64
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# import hygiene: no CLI route loads scipy (solve_lp is its only caller,
# and no route calls solve_lp)

_SCIPY_PROBE = """
import contextlib, io, json, sys
import conekit, conekit.cli
code = 0
if sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = conekit.cli.main(sys.argv[2:])
assert code == int(sys.argv[1]), code
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def scipy_modules_after(*argv, code=0):
    """The scipy modules a fresh interpreter holds after running argv, which
    must exit with code."""
    src = str(Path(conekit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE, str(code), *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return set(json.loads(out.stdout))


@pytest.mark.parametrize("argv", [
    (),
    ("sigma", "--graph", "petersen"),
    ("classify-map", "--graph", "c5"),
    ("srg-catalog",),
    ("sigma", "--graph", "wheel6"),
    ("sigma", "--graph", "tadpole51"),
])
def test_closed_form_routes_load_no_scipy(argv):
    assert scipy_modules_after(*argv) == set()


def test_pcp_one_atom_split_loads_no_scipy(tmp_path):
    v = np.array([1.0, 2.0, 0.5])
    w = np.array([0.3, 1.0, 1.0]) * np.exp(1j * np.array([0.2, -0.5, 1.3]))
    z = v * w
    A = np.outer(v ** 2, np.abs(w) ** 2)
    B = np.outer(z, z.conj())
    B[np.diag_indices(3)] = np.diag(A)
    a = write_matrix(tmp_path / "A.json", A)
    b = write_matrix(tmp_path / "B.json", B)
    assert scipy_modules_after("pair-check", "--cone", "pcp",
                               "--A", a, "--B", b) == set()


def test_pdec_psd_split_loads_no_scipy(tmp_path):
    # the psd split decides the pair before an SDP is built
    G = np.array([[2.0, 1.0, 0.0], [0.5j, 1.0, 1.0], [0.0, -1.0, 1.5]])
    B = G @ G.conj().T
    A = np.ones((3, 3))
    A[np.diag_indices(3)] = np.real(np.diag(B))
    a = write_matrix(tmp_path / "A.json", A)
    b = write_matrix(tmp_path / "B.json", B)
    assert scipy_modules_after("pair-check", "--cone", "pdec",
                               "--A", a, "--B", b) == set()


@pytest.mark.parametrize("argv, code", [
    (["sigma", "--strategy", "sdp", "--graph", "shrikhande"], 0),
    (["cone-check", "--cone", "spn", "--in", "{horn}", "--verify"], 1),
    (["cone-check", "--cone", "cop", "--in", "{horn}", "--verify"], 0),
    (["dicke-ext", "--P", "{berman}", "--r", "3"], 1),
])
def test_sdp_routes_load_no_scipy(argv, code, horn_file, berman_file):
    # the interior-point solver is numpy alone
    argv = [a.format(horn=horn_file, berman=berman_file) for a in argv]
    assert scipy_modules_after(*argv, code=code) == set()
