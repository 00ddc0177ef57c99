import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from witnesskit import (
    Permutation,
    ccnr_check,
    cli,
    entry_search,
    entry_value_perms,
    example_34,
    example_35,
    ppt_check,
    state_from_dict,
    witness_from_dict,
)
from witnesskit.detection import CCNR_TOL, FIRE_TOL, PPT_TOL


def run(argv):
    return cli.main(argv)


def _stable(path):
    raw = path.read_bytes()
    return raw == (json.dumps(json.loads(raw), indent=2, sort_keys=True) + "\n").encode()


# ----------------------------------------------------------------- example

def test_example_e34_writes_valid_state(tmp_path):
    out = tmp_path / "state.json"
    code = run(["example", "e34", "--q", "0.2,0.1,0.7",
                "--abc", "0.05,0.05,0.05", "--out", str(out)])
    assert code == 0
    rho = state_from_dict(json.loads(out.read_text()))
    assert rho.dims.order == 9
    assert _stable(out)


def test_example_defaults_to_stdout(capsys):
    assert run(["example", "max_ent", "--n", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dim_h"] == 2 and len(payload["entries"]) == 16


def test_example_domain_error_exits_2(capsys):
    assert run(["example", "e34", "--q", "0.5,0.5,0.5"]) == 2
    assert "must equal 1" in capsys.readouterr().err


def test_example_pure_env_seed_matches_flag(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("WITNESSKIT_SEED", "7")
    run(["example", "pure", "--dims", "2,3", "--out", str(a)])
    monkeypatch.delenv("WITNESSKIT_SEED")
    run(["example", "pure", "--dims", "2,3", "--seed", "7", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bad_env_seed_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("WITNESSKIT_SEED", "one")
    assert run(["example", "pure"]) == 2
    assert "WITNESSKIT_SEED" in capsys.readouterr().err


# ------------------------------------------------------------------ detect

@pytest.fixture()
def e34_file(tmp_path):
    out = tmp_path / "e34.json"
    run(["example", "e34", "--q", "0.2,0.1,0.7", "--abc", "0.05,0.05,0.05",
         "--out", str(out)])
    return out


def test_detect_round_trip(e34_file, tmp_path):
    report_path = tmp_path / "report.json"
    assert run(["detect", str(e34_file), "--out", str(report_path)]) == 0
    rep = json.loads(report_path.read_text())
    assert rep["verdict"] == "entangled"
    assert rep["fired"] == ["ccnr", "entry_criterion"]
    assert abs(rep["entry_certificate"]["value"] + 0.1) < 1e-12
    assert rep["ppt_min_eig"] > 0
    assert rep["version"] == cli.__version__
    assert rep["config"]["seed"] == 0 and rep["config"]["n_cap"] == 6
    assert "exact_max" not in rep["config"]
    assert _stable(report_path)


def test_detect_text_format(e34_file, capsys):
    assert run(["detect", str(e34_file), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "verdict: entangled" in out
    assert "fired: ccnr, entry_criterion" in out
    assert "entry certificate" in out


@pytest.mark.parametrize("argv", [
    ["detect", "{state}", "--format", "text"],
    ["scan", "--family", "e34", "--vary", "q2", "--range", "0.05,0.25,3", "--format", "csv"],
    ["scan", "--family", "e35"],
])
def test_text_csv_and_json_go_to_stdout_or_file_alike(argv, e34_file, tmp_path, capsys):
    argv = [str(e34_file) if a == "{state}" else a for a in argv]
    out = tmp_path / "out.txt"
    assert run(argv) == 0
    printed = capsys.readouterr().out
    assert run(argv + ["--out", "-"]) == 0
    assert capsys.readouterr().out == printed
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().out == "" and out.read_text() == printed


def test_detect_exit_0_even_when_nothing_fires(tmp_path, capsys):
    # verdicts are output, not exit codes
    from witnesskit import random_separable, BipartiteDims, state_to_dict
    sep = tmp_path / "sep.json"
    sep.write_text(json.dumps(state_to_dict(random_separable(BipartiteDims(2, 2), 3, seed=4))))
    assert run(["detect", str(sep)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "undetected"


def test_detect_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim_h": 2')
    assert run(["detect", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_detect_bad_field_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim_h": 2, "dim_k": 2, "ordering": "diagonal",
                               "entries": []}))
    assert run(["detect", str(bad)]) == 2
    assert "ordering" in capsys.readouterr().err


def test_detect_missing_file_exits_2(tmp_path):
    assert run(["detect", str(tmp_path / "nope.json")]) == 2


def test_detect_numerical_failure_exits_3(e34_file, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert run(["detect", str(e34_file)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: numerical failure:") and "Traceback" not in err


def test_detect_output_independent_of_blas_threads(tmp_path):
    from witnesskit import BipartiteDims, DensityMatrix, H_MAJOR, state_to_dict
    rng = np.random.default_rng(55)
    g = rng.standard_normal((25, 25)) + 1j * rng.standard_normal((25, 25))
    m = g @ g.conj().T
    state = tmp_path / "s55.json"
    state.write_text(json.dumps(state_to_dict(
        DensityMatrix(BipartiteDims(5, 5), H_MAJOR, m / np.trace(m).real))))
    src = str(Path(__file__).resolve().parents[1] / "src")
    reports = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-m", "witnesskit.cli", "detect", str(state)],
                             env=env, capture_output=True, text=True, check=True).stdout
        payload = json.loads(out)
        payload.pop("timings_ms")
        reports.append(payload)
    assert reports[0] == reports[1]


def _slack_state(dims, positive, negative, eps):
    from witnesskit import BipartiteDims, DensityMatrix, H_MAJOR, state_to_dict
    m = np.outer(positive, positive.conj()) - eps * np.outer(negative, negative.conj())
    return state_to_dict(DensityMatrix(BipartiteDims(dims, dims), H_MAJOR, m))


def _ket(dims, i, j):
    v = np.zeros(dims * dims)
    v[(i - 1) * dims + (j - 1)] = 1.0
    return v


@pytest.mark.parametrize("eps", [3e-10, 5e-10, 9e-10])
def test_detect_sound_inside_validation_slack_3x3(tmp_path, capsys, eps):
    # |33><33| - (eps/2)(|11> - |22>)(<11| - <22|) passes validation, whose
    # positivity slack is 1e-9, and its positive part is a product state:
    # no criterion may certify it
    state = tmp_path / "slack.json"
    minus = (_ket(3, 1, 1) - _ket(3, 2, 2)) / np.sqrt(2)
    state.write_text(json.dumps(_slack_state(3, _ket(3, 3, 3), minus, eps)))
    assert run(["detect", str(state)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "undetected", payload["fired"]


@pytest.mark.parametrize("eps", [3e-10, 9e-10])
def test_detect_sound_inside_validation_slack_7x7(tmp_path, capsys, eps):
    # the negative direction is the top eigenvector of an n = 6 entry
    # witness, which scores |77><77| zero and the state -5 eps
    from witnesskit import BipartiteDims, Permutation, WitnessSpec, witness_kps
    n, dims = 6, BipartiteDims(7, 7)
    pi = Permutation.identity(n)
    sigma = Permutation((2, 3, 4, 5, 6, 1))
    w = witness_kps(WitnessSpec(n, sigma.inverse().compose(pi), Permutation.identity(n), pi, dims))
    vals, vecs = np.linalg.eigh(w.mat)
    assert abs(vals[-1] - (n - 1)) < 1e-12
    state = tmp_path / "slack7.json"
    state.write_text(json.dumps(_slack_state(7, _ket(7, 7, 7), vecs[:, -1], eps)))
    assert run(["detect", str(state)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "undetected", payload["fired"]


def test_detect_n_cap_above_exact_bound_exits_2(e34_file, capsys):
    assert run(["detect", str(e34_file), "--n-cap", "9"]) == 2
    captured = capsys.readouterr()
    assert "n_cap must be an integer in 2..8, got 9" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_detect_exact_max_flag_is_gone(e34_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["detect", str(e34_file), "--exact-max", "6"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --exact-max" in capsys.readouterr().err


@pytest.mark.parametrize("restarts", ["0", "-1", "1001"])
def test_detect_restarts_out_of_range_exits_2(e34_file, capsys, restarts):
    assert run(["detect", str(e34_file), "--restarts", restarts]) == 2
    assert "restarts must be an integer in 1..1000" in capsys.readouterr().err


def test_detect_reads_stdin(e34_file, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(e34_file.read_text()))
    assert run(["detect", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "entangled"


# ----------------------------------------------------------------- witness

def test_witness_rank4(tmp_path):
    out = tmp_path / "w.json"
    assert run(["witness", "--type", "rank4", "--dims", "2,2",
                "--with-matrix", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["type"] == "rank4" and len(payload["matrix"]) == 16
    w = witness_from_dict(payload)
    assert w.mat.shape == (4, 4)
    assert _stable(out)


def test_witness_kps(tmp_path):
    out = tmp_path / "w.json"
    assert run(["witness", "--type", "kps", "--dims", "3,3",
                "--kappa", "2,3,1", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["kappa"] == [2, 3, 1]
    assert payload["pi"] == [1, 2, 3]  # defaults to the identity
    assert witness_from_dict(payload).mat.shape == (9, 9)


def test_witness_identity_kappa_exits_2(capsys):
    assert run(["witness", "--type", "kps", "--dims", "3,3",
                "--kappa", "1,2,3"]) == 2
    assert "identity" in capsys.readouterr().err


def test_witness_kps_requires_kappa(capsys):
    assert run(["witness", "--type", "kps", "--dims", "3,3"]) == 2
    assert "--kappa" in capsys.readouterr().err


def test_witness_bad_dims_exits_2(capsys):
    assert run(["witness", "--type", "rank4", "--dims", "2"]) == 2


# -------------------------------------------------------------------- scan

def test_scan_sweep_csv(capsys):
    assert run(["scan", "--family", "e34", "--q", "0.2,0.1,0.7",
                "--abc", "0.05,0.05,0.05", "--vary", "q2",
                "--range", "0.05,0.25,5", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("q1,q2,q3,a,b,c,ppt_min_eig")
    assert len(lines) == 6
    # the reference point sits inside the sweep and is detected
    assert "entangled" in lines[2]
    # large q2 undetected by all three tabulated criteria
    assert lines[-1].endswith("undetected")


def test_scan_point_json(capsys):
    assert run(["scan", "--family", "e35", "--q", "0.05,0.1,0.425,0.425",
                "--abcd", "0.025,0.025,0.025,0.025"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["rows"]) == 1
    row = payload["rows"][0]
    assert row["verdict"] == "entangled"
    assert abs(row["entry_value"] + 0.05) < 1e-10
    assert row["ppt_min_eig"] > 0 and row["ccnr_trace_norm"] < 1


def test_scan_empty_grid(capsys):
    assert run(["scan", "--family", "e34", "--vary", "q1",
                "--range", "0,0.4,0"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == []


def test_scan_domain_violation_in_grid_exits_2(capsys):
    assert run(["scan", "--family", "e34", "--q", "0.2,0.1,0.7",
                "--abc", "0.3,0,0", "--vary", "q2", "--range", "0,0.9,4"]) == 2
    assert "grid point" in capsys.readouterr().err


def test_scan_cannot_vary_absorbing_weight(capsys):
    assert run(["scan", "--family", "e34", "--vary", "q3",
                "--range", "0,0.5,3"]) == 2
    assert "absorbs" in capsys.readouterr().err


def test_scan_vary_requires_range(capsys):
    assert run(["scan", "--family", "e34", "--vary", "q1"]) == 2


def test_scan_takes_no_seed(capsys):
    # scan draws nothing random: it has no --seed flag and echoes no seed
    with pytest.raises(SystemExit) as exc:
        run(["scan", "--family", "e34", "--seed", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(["scan", "--family", "e34"]) == 0
    assert "seed" not in json.loads(capsys.readouterr().out)["config"]


def _fmt(vals):
    return ",".join(repr(float(v)) for v in vals)


def _seeded_grid(family, seed):
    """A seeded q2 sweep holding firing and silent points, as scan argv plus
    the grid parameters the command builds from it."""
    rng = np.random.default_rng(seed)
    if family == "e34":
        q1 = rng.uniform(0.05, 0.4)
        lo, hi = 0.02, 0.95 - q1
        grid = np.linspace(lo, hi, 6)
        amps = np.sqrt(np.min(grid * (1 - q1 - grid))) * rng.uniform(0.0, 0.95, 3)
        q = (q1, lo, 1 - q1 - lo)
    else:
        # e35's entry value vanishes at q2 = q1, the middle of this sweep
        q1, q3 = rng.uniform(0.05, 0.15), rng.uniform(0.2, 0.35)
        lo, hi = 0.0, 2 * q1
        amps = np.sqrt(q3 * (1 - q1 - q3 - hi)) * rng.uniform(0.0, 0.5, 4)
        q = (q1, lo, q3, 1 - q1 - lo - q3)
    argv = ["scan", "--family", family, "--q", _fmt(q),
            "--abc" if family == "e34" else "--abcd", _fmt(amps),
            "--vary", "q2", "--range", f"{lo!r},{hi!r},{6 if family == 'e34' else 5}"]
    qnames, anames = cli._SCAN_PARAMS[family]
    base = dict(zip(qnames, q)) | dict(zip(anames, amps))
    points = []
    for v in np.linspace(lo, hi, 6 if family == "e34" else 5):
        params = dict(base, q2=float(v))
        params[qnames[-1]] = 1.0 - sum(params[name] for name in qnames[:-1])
        points.append(params)
    return argv, points


def _point_reference(family, params):
    """One scan row recomputed from public single-state calls; the entry
    value also from a full enumeration of the (pi, sigma) pairs."""
    rho = example_34(*params.values()) if family == "e34" else example_35(*params.values())
    ppt, ccnr = ppt_check(rho), ccnr_check(rho)
    certs = [entry_search(rho, n, mode="exact") for n in range(2, rho.dims.dim_h + 1)]
    values = [c.value for c in certs if c is not None]
    best = min(values) if values else None
    enumerated = min(
        entry_value_perms(rho, n, Permutation(p), Permutation(s))
        for n in range(2, rho.dims.dim_h + 1)
        for p in itertools.permutations(range(1, n + 1))
        for s in itertools.permutations(range(1, n + 1))
        if all(a != b for a, b in zip(p, s))
    )
    fired = ppt < PPT_TOL or ccnr > 1.0 + CCNR_TOL or best is not None
    return ppt, ccnr, best, "entangled" if fired else "undetected", enumerated


@pytest.mark.parametrize("family, seed", [("e34", 0), ("e34", 2), ("e35", 1), ("e35", 3)])
def test_scan_grid_rows_match_per_point_reference(family, seed, tmp_path):
    argv, points = _seeded_grid(family, seed)
    out = tmp_path / "scan.json"
    assert run(argv + ["--out", str(out)]) == 0
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == len(points)
    for row, params in zip(rows, points):
        ppt, ccnr, best, verdict, enumerated = _point_reference(family, params)
        assert row["ppt_min_eig"] == ppt and row["ccnr_trace_norm"] == ccnr
        assert row["entry_value"] == best and row["verdict"] == verdict
        # the search is exact: it fires iff some pair's value fires
        assert (best is not None) == (enumerated < FIRE_TOL)
        if best is not None:
            assert abs(best - enumerated) <= 1e-12
    assert {r["verdict"] for r in rows} == {"entangled", "undetected"}
    assert {r["entry_value"] is None for r in rows} == {True, False}


def _scan_rows(argv, capsys):
    assert run(argv) == 0
    return json.loads(capsys.readouterr().out)["rows"]


def test_scan_one_point_and_one_point_grid(capsys):
    base = ["scan", "--family", "e34", "--q", "0.2,0.1,0.7", "--abc", "0.05,0.05,0.05"]
    (point,) = _scan_rows(base, capsys)
    (single,) = _scan_rows(base + ["--vary", "q2", "--range", "0.1,0.3,1"], capsys)
    for row in (point, single):
        params = {k: row[k] for k in ("q1", "q2", "q3", "a", "b", "c")}
        ppt, ccnr, best, verdict, _ = _point_reference("e34", params)
        assert (row["ppt_min_eig"], row["ccnr_trace_norm"], row["entry_value"]) == (ppt, ccnr, best)
        assert row["verdict"] == verdict == "entangled"
    assert single["q2"] == 0.1


def test_scan_invalid_third_point_exits_2_before_any_criterion(tmp_path, monkeypatch, capsys):
    def no_criteria(rhos):
        raise AssertionError("criteria ran on an invalid grid")

    monkeypatch.setattr(cli, "scan_criteria", no_criteria)
    out = tmp_path / "scan.csv"
    # |a|^2 = 0.1225 against q2 * q3 = 0.16, 0.15, 0.12, ... along the sweep
    assert run(["scan", "--family", "e34", "--q", "0.2,0.4,0.4", "--abc", "0.35,0,0",
                "--vary", "q2", "--range", "0.4,0.0,5", "--format", "csv",
                "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert "grid point q2 = 0.2 is invalid" in captured.err
    assert captured.out == "" and not out.exists()


# ----------------------------------------------------------------- parsing

def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert cli.__version__ in capsys.readouterr().out


def test_python_m_witnesskit_version():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-m", "witnesskit", "--version"],
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == f"witnesskit {cli.__version__}"


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == 2


def test_wrong_arity_q_exits_2(capsys):
    assert run(["example", "e34", "--q", "0.2,0.8"]) == 2
    assert "3 comma-separated" in capsys.readouterr().err


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_gives_fresh_parser_output(tmp_path, capsys):
    # detect, scan and example back to back on the shared parser, then each
    # on a parser built afresh: nothing one command parses may leak into
    # the next
    state = tmp_path / "state.json"
    assert run(["example", "max_ent", "--n", "2", "--out", str(state)]) == 0
    commands = [
        ["detect", str(state)],
        ["scan", "--family", "e35", "--vary", "q1", "--range", "0.1,0.3,3"],
        ["example", "pure", "--dims", "2,3"],
    ]

    def output(argv):
        assert run(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        payload.pop("timings_ms", None)
        return payload

    shared = [output(argv) for argv in commands]
    fresh = []
    for argv in commands:
        cli.build_parser.cache_clear()
        fresh.append(output(argv))
    assert shared == fresh


def test_import_cli_leaves_selfcheck_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, witnesskit.cli; print('witnesskit.selfcheck' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"


def test_selfcheck_command_runs_the_suite(monkeypatch, capsys):
    from witnesskit import selfcheck

    def fake_run_all(printer):
        printer("[1] stub ok")
        return [("stub", True, "ok", 0.0)]

    monkeypatch.setattr(selfcheck, "run_all", fake_run_all)
    assert run(["selfcheck"]) == 0
    assert capsys.readouterr().out == "[1] stub ok\n"
