import json
import math

import numpy as np
import pytest

from qwfold.cli import cli_dispatch
from qwfold.graphs import load_graph, load_group_map, save_graph, build_hypercycle
from qwfold.convolve import hypercycle_to_lattice


def run(args):
    return cli_dispatch(args)


# --- exit codes --------------------------------------------------------------


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(["frobnicate"]) == 2


def test_no_subcommand_is_usage_error():
    assert run([]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    out = capsys.readouterr().out
    for name in ("graph", "convolve", "simulate", "compare", "spectrum",
                 "groups", "minimality", "race", "export-couplings"):
        assert name in out


def test_domain_error_exits_one(capsys):
    assert run(["graph", "build", "--family", "cycle", "--k", "5"]) == 1
    assert "error" in capsys.readouterr().err


# --- graph build ---------------------------------------------------------------


def test_graph_build_writes_file(tmp_path):
    out = tmp_path / "cube.json"
    assert run(["graph", "build", "--family", "hypercube", "--dim", "3", "--out", str(out)]) == 0
    g = load_graph(out)
    assert g.node_count == 8 and g.edge_count == 12


def test_graph_build_line_and_lattice(tmp_path):
    out = tmp_path / "line.json"
    assert run(["graph", "build", "--family", "weighted_line",
                "--couplings", "1.7320508075688772,2,1.7320508075688772",
                "--out", str(out)]) == 0
    assert load_graph(out).node_count == 4

    out2 = tmp_path / "lat.json"
    assert run(["graph", "build", "--family", "weighted_lattice",
                "--rows", "1,1,1", "--out", str(out2)]) == 0
    assert load_graph(out2).node_count == 16


# --- convolve -------------------------------------------------------------------


def test_convolve_hypercube(tmp_path, capsys):
    out, mp = tmp_path / "line.json", tmp_path / "map.json"
    assert run(["convolve", "--family", "hypercube", "--dim", "3",
                "--out", str(out), "--map", str(mp)]) == 0
    line = load_graph(out)
    assert line.node_count == 4
    gmap = load_group_map(mp)
    assert gmap.source_count == 8 and gmap.target_count == 4
    assert "hypercube_line: 8 -> 4" in capsys.readouterr().out


def test_convolve_fold_from_file(tmp_path):
    lat_path = tmp_path / "lat.json"
    save_graph(hypercycle_to_lattice(2, 6).reduced, lat_path)
    out = tmp_path / "ultimate.json"
    assert run(["convolve", "--in", str(lat_path), "--out", str(out)]) == 0
    assert load_graph(out).node_count == 10


def test_convolve_partial(tmp_path):
    out = tmp_path / "cyl.json"
    assert run(["convolve", "--family", "hypercycle", "--dim", "2", "--k", "6",
                "--partial", "--out", str(out)]) == 0
    assert load_graph(out).node_count == 24


def test_convolve_without_inputs_fails():
    assert run(["convolve"]) == 1


# --- simulate --------------------------------------------------------------------


def test_simulate_unitary_csv(tmp_path):
    gpath = tmp_path / "k2.json"
    run(["graph", "build", "--family", "hypercube", "--dim", "1", "--out", str(gpath)])
    out = tmp_path / "curve.csv"
    assert run(["simulate", "--in", str(gpath), "--start", "0",
                "--tmax", "1", "--dt", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,node_0,node_1"
    assert len(lines) == 4


def test_simulate_classical_csv(tmp_path):
    gpath = tmp_path / "ring.json"
    run(["graph", "build", "--family", "cycle", "--k", "4", "--out", str(gpath)])
    out = tmp_path / "curve.csv"
    assert run(["simulate", "--in", str(gpath), "--kind", "classical",
                "--tmax", "50", "--dt", "25", "--out", str(out)]) == 0
    last = out.read_text().splitlines()[-1].split(",")
    # long-time distribution on a regular graph is uniform
    assert all(abs(float(x) - 0.25) < 1e-6 for x in last[1:])


def test_simulate_lindblad_csv(tmp_path):
    gpath = tmp_path / "ring.json"
    run(["graph", "build", "--family", "cycle", "--k", "4", "--out", str(gpath)])
    out = tmp_path / "curve.csv"
    assert run(["simulate", "--in", str(gpath), "--sink", "--target", "2",
                "--tmax", "1", "--dt", "0.1", "--out", str(out)]) == 0
    header = out.read_text().splitlines()[0]
    assert header == "t,node_0,node_1,node_2,node_3,sink"


# --- compare ---------------------------------------------------------------------


def test_compare_files_unitary(tmp_path, capsys):
    cube, line, mp = (tmp_path / n for n in ("cube.json", "line.json", "map.json"))
    run(["graph", "build", "--family", "hypercube", "--dim", "3", "--out", str(cube)])
    run(["convolve", "--family", "hypercube", "--dim", "3", "--out", str(line), "--map", str(mp)])
    capsys.readouterr()
    assert run(["compare", "--orig", str(cube), "--reduced", str(line),
                "--map", str(mp), "--tmax", "10", "--dt", "0.05"]) == 0
    dev = float(capsys.readouterr().out.strip())
    assert dev < 1e-10


def test_compare_files_sink_mode(tmp_path, capsys):
    torus, lat, mp = (tmp_path / n for n in ("torus.json", "lat.json", "map.json"))
    run(["graph", "build", "--family", "hypercycle", "--dim", "2", "--k", "6", "--out", str(torus)])
    run(["convolve", "--family", "hypercycle", "--dim", "2", "--k", "6",
         "--out", str(lat), "--map", str(mp)])
    capsys.readouterr()
    assert run(["compare", "--orig", str(torus), "--reduced", str(lat), "--map", str(mp),
                "--sink", "--gamma", "1", "--tmax", "2", "--dt", "0.1"]) == 0
    dev = float(capsys.readouterr().out.strip())
    assert dev < 1e-6


def test_compare_requires_inputs():
    assert run(["compare", "--sink"]) == 1


# --- analysis commands --------------------------------------------------------------


def test_spectrum_command(tmp_path, capsys):
    gpath = tmp_path / "ring8.json"
    run(["graph", "build", "--family", "cycle", "--k", "8", "--out", str(gpath)])
    capsys.readouterr()
    assert run(["spectrum", "--in", str(gpath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    np.testing.assert_allclose(doc["distinct"], [2, math.sqrt(2), 0, -math.sqrt(2), -2], atol=1e-9)
    assert len(doc["eigenvalues"]) == 8


def test_spectrum_and_minimality_accept_large_weights(tmp_path, capsys):
    gpath = tmp_path / "big.json"
    run(["graph", "build", "--family", "weighted_line", "--couplings", "1e9,2e9,5e8,3e9",
         "--out", str(gpath)])
    capsys.readouterr()
    assert run(["spectrum", "--in", str(gpath)]) == 0
    doc = json.loads(capsys.readouterr().out)
    ref = np.sort(np.linalg.eigvalsh(load_graph(gpath).adjacency_matrix()))[::-1]
    np.testing.assert_allclose(doc["eigenvalues"], ref, rtol=0, atol=1e-12 * np.abs(ref).max())
    assert run(["minimality", "--in", str(gpath)]) == 0
    assert json.loads(capsys.readouterr().out)["eigenvalues"]["full"] == doc["eigenvalues"]


def test_minimality_command_is_free_of_the_weight_unit(tmp_path, capsys):
    reports = []
    for weight in ("1", "1e9"):
        gpath = tmp_path / f"lattice{weight}.json"
        couplings = ",".join([weight] * 3)
        assert run(["graph", "build", "--family", "weighted_lattice", "--rows", couplings,
                    "--couplings", couplings, "--out", str(gpath)]) == 0
        assert run(["minimality", "--in", str(gpath)]) == 0
        captured = capsys.readouterr()
        assert "warning" not in captured.err.lower()
        reports.append(json.loads(captured.out))
    unit, big = reports
    assert (unit["group_count"], unit["distinct_eigenvalue_count"]) == (10, 9)
    for key in ("group_count", "distinct_eigenvalue_count", "verdict", "groups"):
        assert big[key] == unit[key]


def test_spectrum_command_is_free_of_the_weight_unit(tmp_path, capsys):
    docs = []
    for weight in ("1", "1e9"):
        gpath = tmp_path / f"lattice{weight}.json"
        couplings = ",".join([weight] * 3)
        assert run(["graph", "build", "--family", "weighted_lattice", "--rows", couplings,
                    "--couplings", couplings, "--out", str(gpath)]) == 0
        assert run(["spectrum", "--in", str(gpath)]) == 0
        captured = capsys.readouterr()
        assert "warning" not in captured.err.lower()
        docs.append(json.loads(captured.out))
    unit, big = docs
    assert len(unit["distinct"]) == len(big["distinct"]) == 9
    assert unit["tol"] == big["tol"] == 1e-6
    np.testing.assert_allclose(big["distinct"], 1e9 * np.array(unit["distinct"]),
                               rtol=0, atol=1e-12 * np.abs(big["eigenvalues"]).max())


@pytest.mark.parametrize("tol", ["-1", "0", "nan"])
def test_groups_command_rejects_bad_tol(tmp_path, capsys, tol):
    gpath = tmp_path / "ring.json"
    run(["graph", "build", "--family", "cycle", "--k", "4", "--out", str(gpath)])
    capsys.readouterr()
    assert run(["groups", "--in", str(gpath), "--tol", tol]) == 1
    assert "tol must be positive" in capsys.readouterr().err


def test_groups_command(tmp_path, capsys):
    gpath = tmp_path / "cube.json"
    run(["graph", "build", "--family", "hypercube", "--dim", "3", "--out", str(gpath)])
    capsys.readouterr()
    assert run(["groups", "--in", str(gpath), "--start", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["group_count"] == 4
    assert [len(g["nodes"]) for g in doc["groups"]] == [1, 3, 3, 1]


def test_minimality_command(tmp_path, capsys):
    gpath = tmp_path / "ring8.json"
    run(["graph", "build", "--family", "cycle", "--k", "8", "--out", str(gpath)])
    capsys.readouterr()
    assert run(["minimality", "--in", str(gpath), "--out", str(tmp_path / "rep.json")]) == 0
    doc = json.loads((tmp_path / "rep.json").read_text())
    assert doc["verdict"] == "CONSISTENT"


# --- race ----------------------------------------------------------------------------


def test_race_command_csv(tmp_path):
    out = tmp_path / "races.csv"
    assert run(["race", "--family", "cycle", "--k", "6", "--pairs", "5",
                "--seed", "42", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "pair,source,target,d,classical_steps,quantum_steps,winner"
    assert len(lines) == 6


def test_race_requires_seed():
    assert run(["race", "--family", "cycle", "--k", "6"]) == 2


def test_race_from_graph_file(tmp_path):
    gpath, out = tmp_path / "ring.json", tmp_path / "races.csv"
    run(["graph", "build", "--family", "cycle", "--k", "6", "--out", str(gpath)])
    assert run(["race", "--in", str(gpath), "--pairs", "3", "--seed", "1",
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def test_race_seed_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert run(["race", "--family", "cycle", "--k", "6", "--pairs", "4",
                    "--seed", "9", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


# --- export-couplings -----------------------------------------------------------------


def test_export_couplings_command(tmp_path):
    line, out = tmp_path / "line.json", tmp_path / "couplings.csv"
    run(["convolve", "--family", "hypercube", "--dim", "3", "--out", str(line)])
    assert run(["export-couplings", "--in", str(line), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "edge,coupling"
    assert lines[1].startswith("1-2,1.73205080757")
    assert lines[2].startswith("2-3,2")


def test_export_couplings_rejects_ring(tmp_path):
    gpath = tmp_path / "ring.json"
    run(["graph", "build", "--family", "cycle", "--k", "6", "--out", str(gpath)])
    assert run(["export-couplings", "--in", str(gpath)]) == 1


# --- input validation -------------------------------------------------------------


def test_graph_build_rejects_non_finite_couplings(tmp_path, capsys):
    out = tmp_path / "line.json"
    assert run(["graph", "build", "--family", "weighted_line", "--couplings", "nan,inf",
                "--out", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def _cube_and_line(tmp_path):
    cube, line, mp = (tmp_path / n for n in ("cube.json", "line.json", "map.json"))
    run(["graph", "build", "--family", "hypercube", "--dim", "3", "--out", str(cube)])
    run(["convolve", "--family", "hypercube", "--dim", "3", "--out", str(line), "--map", str(mp)])
    return ["--orig", str(cube), "--reduced", str(line), "--map", str(mp)]


@pytest.mark.parametrize(
    "extra,flag",
    [(["--start", "99"], "--start"), (["--start", "-1"], "--start"),
     (["--sink", "--target", "99"], "--target")],
    ids=["start-high", "start-negative", "sink-target-high"],
)
def test_compare_range_checks_nodes(tmp_path, capsys, extra, flag):
    files = _cube_and_line(tmp_path)
    capsys.readouterr()
    assert run(["compare", *files, *extra, "--tmax", "1", "--dt", "0.1"]) == 1
    err = capsys.readouterr().err
    assert f"error: {flag}" in err and "out of range" in err


def test_compare_rejects_malformed_map(tmp_path, capsys):
    files = _cube_and_line(tmp_path)
    (tmp_path / "map.json").write_text('{"assignment": 3}')
    capsys.readouterr()
    assert run(["compare", *files]) == 1
    assert "assignment" in capsys.readouterr().err


def test_compare_rejects_map_of_other_graph(tmp_path, capsys):
    files = _cube_and_line(tmp_path)
    (tmp_path / "map.json").write_text('{"assignment": [0, 1, 2, 3]}')
    capsys.readouterr()
    assert run(["compare", *files, "--start", "5"]) == 1
    assert "map covers 4 nodes" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,message",
    [(["simulate", "--tmax", "inf"], "finite"),
     (["simulate", "--dt", "nan"], "finite"),
     (["simulate", "--sink", "--gamma", "nan"], "finite"),
     (["simulate", "--sink", "--gamma", "inf"], "finite"),
     (["race", "--seed", "1", "--pairs", "2", "--gamma", "nan"], "finite"),
     (["race", "--seed", "1", "--pairs", "2", "--tmax", "inf"], "finite")],
    ids=["tmax-inf", "dt-nan", "sink-gamma-nan", "sink-gamma-inf", "race-gamma-nan", "race-tmax-inf"],
)
def test_non_finite_numbers_exit_one(tmp_path, capsys, argv, message):
    gpath = tmp_path / "ring.json"
    run(["graph", "build", "--family", "cycle", "--k", "4", "--out", str(gpath)])
    capsys.readouterr()
    assert run([*argv, "--in", str(gpath)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_simulate_rejects_overflowing_sample_count(tmp_path, capsys):
    # finite t_max and dt whose ratio overflows to infinity
    gpath = tmp_path / "ring.json"
    run(["graph", "build", "--family", "cycle", "--k", "4", "--out", str(gpath)])
    capsys.readouterr()
    assert run(["simulate", "--in", str(gpath), "--tmax", "1e300", "--dt", "1e-300"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "finite" in err and "Traceback" not in err


def test_compare_family_rejects_non_finite_gamma(capsys):
    assert run(["compare", "--family", "hypercycle", "--dim", "2", "--k", "4",
                "--sink", "--gamma", "nan", "--tmax", "1", "--dt", "0.1"]) == 1
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("target", ["16", "-1"], ids=["node-count", "negative"])
def test_simulate_range_checks_sink_target(tmp_path, capsys, target):
    gpath = tmp_path / "torus.json"
    run(["graph", "build", "--family", "hypercycle", "--dim", "2", "--k", "4", "--out", str(gpath)])
    capsys.readouterr()
    assert run(["simulate", "--in", str(gpath), "--sink", "--target", target,
                "--tmax", "1", "--dt", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --target {target} out of range") and "0..15" in err


def test_memory_error_exits_one(monkeypatch, capsys):
    from qwfold import harness

    def exhausted(config):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(harness, "run_hitting_races", exhausted)
    assert run(["race", "--family", "cycle", "--k", "6", "--pairs", "2", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: Unable to allocate") and "Traceback" not in err
