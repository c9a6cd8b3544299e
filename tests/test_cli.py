import json
import re

import numpy as np
import pytest

from hsvt import applications, cli, io, linalg
from hsvt.compiler import (CONVENTION, PhaseSchedule, SolverOptions,
                           schedule_from_arrays)
from hsvt.embedding import SIGMA_MAX_SLACK

from conftest import count_calls


def run(argv):
    return cli.main(argv)


def merged_config(path, command="synthesize"):
    """The config main() hands to a command, from a config file alone."""
    args = cli.build_parser().parse_args([command, "--config", str(path)])
    return cli._merge_config(args)


# -- exit codes --------------------------------------------------------------

def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"kind": "sine", "bogus": 1}))
    assert run(["synthesize", "--config", str(cfg), "--k", "1"]) == 2


def test_invalid_config_json_exits_2(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{not json")
    assert run(["synthesize", "--config", str(cfg)]) == 2


def test_bad_matrix_file_exits_3(tmp_path):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1, 0]]}))
    sch = tmp_path / "s.txt"
    sch.write_text(PhaseSchedule(steps=()).to_text())
    assert run(["simulate", "--matrix", str(bad), "--schedule", str(sch)]) == 3


@pytest.mark.parametrize("entries", [[["a", 0]], [[None, 0]], [[[1], 0]], 5])
def test_malformed_matrix_entries_exit_3(tmp_path, entries):
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"rows": 1, "cols": 1, "entries": entries}))
    v = tmp_path / "v.json"
    io.write_state(v, np.array([1.0]))
    assert run(["apply", "--matrix", str(bad), "--state", str(v)]) == 3


@pytest.mark.parametrize("cfg", [{"eps": "x"}, {"seed": "z"}, {"restarts": None}])
def test_bad_solver_config_value_exits_2(tmp_path, capsys, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run(["synthesize", "--config", str(path), "--k", "1"]) == 2
    assert repr(next(iter(cfg))) in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg", [
    ("synthesize", {"sigma_lo": "x"}),
    ("synthesize", {"variable_t": "false"}),
    ("synthesize", {"k": True}),
    ("synthesize", {"k": 1.5}),
    ("synthesize", {"grid_size": "x"}),
    ("synthesize", {"metric": "fast"}),
    ("synthesize", {"kind": 3}),
    ("simulate", {"eta": [0.1]}),
    ("sweep", {"trials": "many"}),
    ("sweep", {"ks": "8,x"}),
    ("sweep", {"etas": [0.1, False]}),
    ("sweep", {"mode": "speed"}),
    ("ode", {"dt": None}),
    ("ode", {"steps": "x"}),
    ("history", {"n": {"n": 2}}),
    ("apply", {"backend": "gpu"}),
])
def test_bad_config_value_exits_2(tmp_path, capsys, command, cfg):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert run([command, "--config", str(path)]) == 2
    assert repr(next(iter(cfg))) in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["sweep", "--mode", "noise", "--etas", "1e-3", "--trials", "2", "--seed", "-1"], "seed"),
    (["simulate", "--eta", "1e-3", "--seed", "-1"], "seed"),
    (["synthesize", "--seed", "-1"], "'seed'"),
    (["synthesize", "--max-nfev", "0"], "'max_nfev'"),
])
def test_out_of_range_seed_and_max_nfev_exit_2(tmp_path, capsys, argv, named):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5]))
    sch = tmp_path / "s.txt"
    sch.write_text(PhaseSchedule.from_text("# hsvt-schedule v1 k=1\n0.3,1\n").to_text())
    if argv[0] != "synthesize":
        argv = argv + ["--matrix", str(m), "--schedule", str(sch)]
    assert run(argv) == 2
    assert named in capsys.readouterr().err


def test_malformed_schedule_file_exits_3(tmp_path):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5, 0.6]))
    sch = tmp_path / "s.txt"
    sch.write_text("# hsvt-schedule v1 k=abc\n0.1,1\n")
    assert run(["simulate", "--matrix", str(m), "--schedule", str(sch)]) == 3


def _unreadable_file(tmp_path, kind):
    """A path to a missing file, a directory, or a file that is not UTF-8."""
    path = tmp_path / kind
    if kind == "dir":
        path.mkdir()
    elif kind == "latin1":
        path.write_bytes(b'{"caf\xe9": 1}\n')
    return path


@pytest.mark.parametrize("kind", ["missing", "dir", "latin1"])
def test_unreadable_schedule_exits_3(tmp_path, capsys, kind):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5]))
    sch = str(_unreadable_file(tmp_path, kind))
    assert run(["simulate", "--matrix", str(m), "--schedule", sch]) == 3
    assert run(["sweep", "--mode", "noise", "--matrix", str(m), "--schedule", sch,
                "--etas", "0", "--trials", "1"]) == 3
    assert "cannot read file" in capsys.readouterr().err


def test_non_utf8_matrix_exits_3(tmp_path):
    v = tmp_path / "v.json"
    io.write_state(v, np.array([1.0]))
    bad = _unreadable_file(tmp_path, "latin1")
    assert run(["apply", "--matrix", str(bad), "--state", str(v)]) == 3


@pytest.mark.parametrize("text", ["[" * 200000, "1" * 5000], ids=["deep", "longint"])
def test_undecodable_json_exits_3_as_input_and_2_as_config(tmp_path, text):
    # past json.load's recursion limit, or past int()'s digit limit
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    v = tmp_path / "v.json"
    io.write_state(v, np.array([1.0]))
    assert run(["apply", "--matrix", str(bad), "--state", str(v)]) == 3
    assert run(["apply", "--matrix", str(v), "--state", str(bad)]) == 3
    assert run(["synthesize", "--config", str(bad)]) == 2


def test_non_utf8_config_exits_2(tmp_path, capsys):
    bad = _unreadable_file(tmp_path, "latin1")
    assert run(["synthesize", "--config", str(bad)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_foreign_schedule_convention_exits_3(tmp_path, capsys):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5]))
    sch = tmp_path / "s.txt"
    sch.write_text("# hsvt-schedule v1 k=1 convention=other\n0.3,1\n")
    assert run(["simulate", "--matrix", str(m), "--schedule", str(sch)]) == 3
    assert "'convention'" in capsys.readouterr().err


@pytest.mark.parametrize("ks", ["-2", "0", "8,0"])
def test_degree_sweep_below_one_exits_2(capsys, ks):
    assert run(["sweep", "--mode", "degree", "--ks", ks]) == 2
    assert ">= 1" in capsys.readouterr().err


def test_unwritable_output_exits_2(tmp_path, capsys):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5]))
    sch = tmp_path / "s.txt"
    sch.write_text("# hsvt-schedule v1 k=1\n0.3,1\n")
    out = str(tmp_path / "nodir" / "out")
    assert run(["simulate", "--matrix", str(m), "--schedule", str(sch),
                "--report-out", out]) == 2
    assert run(["sweep", "--mode", "noise", "--matrix", str(m), "--schedule", str(sch),
                "--etas", "0", "--trials", "1", "--csv-out", out]) == 2
    assert capsys.readouterr().err.count("nodir") == 2


def test_kind_flag_offers_only_buildable_kinds(capsys):
    assert run(["synthesize", "--kind", "custom-samples"]) == 2
    assert "invalid choice" in capsys.readouterr().err


def test_history_unit_sigma_exits_4(tmp_path):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.eye(2))
    v = tmp_path / "v.json"
    io.write_state(v, np.array([1.0, 0.0]))
    assert run(["history", "--matrix", str(m), "--state", str(v),
                "--n", "2"]) == 4


@pytest.mark.parametrize("state", [[0.0, 0.0], [1e-200, 0.0]], ids=["zero", "underflow"])
def test_history_zero_weight_state_exits_4(tmp_path, capsys, state):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5, 0.6]))
    v = tmp_path / "v.json"
    io.write_state(v, np.array(state))
    assert run(["history", "--matrix", str(m), "--state", str(v)]) == 4
    out, err = capsys.readouterr()
    assert out == "" and err == "error: history state has zero weight\n"


def test_history_overflowing_state_exits_2(tmp_path, capsys):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5, 0.6]))
    v = tmp_path / "v.json"
    io.write_state(v, np.array([1e200, 0.0]))
    assert run(["history", "--matrix", str(m), "--state", str(v)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: history state's squared norm overflows\n"


def test_config_holding_a_json_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps([{"k": 1}]))
    assert run(["synthesize", "--config", str(cfg)]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (["--kind", "scaled-power", "--coeff", "0.5"], "'power'"),
    (["--kind", "inverse-sqrt-complement"], "'coeff'"),
])
def test_missing_kind_parameter_exits_2(capsys, argv, named):
    assert run(["synthesize", "--k", "1"] + argv) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("sweep", "eps", 0.5), ("sweep", "restarts", 0), ("sweep", "report_out", "r.json"),
    ("apply", "seed", 5), ("ode", "seed", 5), ("history", "seed", 5),
    ("synthesize", "restarts", 8),
])
def test_deleted_flags_exit_2(tmp_path, capsys, command, key, value):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5]))
    b = tmp_path / "b.json"
    io.write_matrix(b, [[-1.0]])
    v = tmp_path / "v.json"
    io.write_state(v, [1.0])
    rest = {"sweep": ["--ks", ""], "synthesize": ["--k", "1"],
            "apply": ["--matrix", str(m), "--state", str(v)],
            "ode": ["--generator", str(b), "--state", str(v)],
            "history": ["--matrix", str(m), "--state", str(v)]}[command]
    flag = "--" + key.replace("_", "-")
    assert run([command, flag, str(value)] + rest) == 2
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({key: value}))
    assert run([command, "--config", str(cfg)] + rest) == 2
    assert repr(key) in capsys.readouterr().err


def test_unknown_sweep_mode_exits_2(tmp_path):
    assert run(["sweep", "--mode", "bogus", "--ks", ""]) == 2
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"mode": "bogus"}))
    assert run(["sweep", "--config", str(cfg), "--ks", ""]) == 2


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", [
    ("simulate", "eps", "nan"), ("simulate", "eps", "inf"), ("simulate", "eps", "-1"),
    ("simulate", "cap", "nan"), ("simulate", "cap", "inf"),
    ("apply", "eps", "nan"), ("apply", "eps", "1e400"), ("history", "eps", "nan"),
    ("synthesize", "cap", "nan"), ("sweep", "etas", "1e-3,nan"),
])
def test_non_finite_floats_and_negative_eps_exit_2(tmp_path, capsys, source, command,
                                                    key, value):
    # a report must stay valid JSON, which has no NaN or Infinity
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5, 0.6]))
    v = tmp_path / "v.json"
    io.write_state(v, [1.0, 0.0])
    sch = tmp_path / "s.txt"
    sch.write_text("# hsvt-schedule v1 k=1\n0.3,1\n")
    rest = {"simulate": ["--matrix", str(m), "--schedule", str(sch)],
            "apply": ["--matrix", str(m), "--state", str(v)],
            "history": ["--matrix", str(m), "--state", str(v)],
            "synthesize": ["--k", "1"],
            "sweep": ["--mode", "noise", "--matrix", str(m), "--schedule", str(sch),
                      "--trials", "2"]}[command]
    if source == "flag":
        argv = [command, f"--{key}={value}"]
    else:
        number = [float(x) for x in value.split(",")] if key == "etas" else float(value)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: number}))   # json writes and reads NaN, Infinity
        argv = [command, "--config", str(cfg)]
    assert run(argv + rest) == 2
    out, err = capsys.readouterr()
    assert out == "" and key in err


def test_every_float_flag_refuses_non_finite_values():
    floats = [dest for dest, spec in cli._FLAGS.items()
              if getattr(spec.get("type"), "__name__", "").startswith("float")]
    assert sorted(floats) == ["cap", "coeff", "dt", "eps", "eta", "etas", "power",
                              "sigma_hi", "sigma_lo"]
    for dest in floats:
        cast = cli._FLAGS[dest]["type"]
        assert cast("0.5") == ([0.5] if dest == "etas" else 0.5)
        for value in ("nan", "inf", "-inf", "1e400", "1,nan", True):
            with pytest.raises((TypeError, ValueError)):
                cast(value)
    with pytest.raises(ValueError):
        cli._FLAGS["eps"]["type"](-1e-300)


# -- flags -------------------------------------------------------------------

_TARGET_FLAGS = {"--kind", "--sigma-lo", "--sigma-hi", "--cap", "--power", "--coeff"}
_REPORT_FLAGS = {"--config", "--eps", "--report-out"}
_COMMAND_FLAGS = {
    "synthesize": _REPORT_FLAGS | _TARGET_FLAGS | {
        "--seed", "--k", "--grid-size", "--max-nfev", "--metric", "--variable-t",
        "--schedule-out"},
    "simulate": _REPORT_FLAGS | _TARGET_FLAGS | {
        "--seed", "--matrix", "--schedule", "--eta"},
    "sweep": {"--config"} | _TARGET_FLAGS | {
        "--seed", "--mode", "--ks", "--etas", "--trials", "--matrix", "--schedule",
        "--max-nfev", "--csv-out"},
    "apply": _REPORT_FLAGS | {"--matrix", "--state", "--backend", "--state-out"},
    "ode": _REPORT_FLAGS | {"--generator", "--state", "--dt", "--steps", "--backend",
                            "--state-out"},
    "history": _REPORT_FLAGS | {"--matrix", "--state", "--n", "--backend", "--state-out"},
}


def test_each_command_takes_exactly_its_flags(capsys):
    counts = {}
    for command, want in _COMMAND_FLAGS.items():
        assert run([command, "--help"]) == 0
        usage = capsys.readouterr().out.split("\n\n")[0]
        got = set(re.findall(r"\[(--[a-z-]+)", usage))
        assert got == want, command
        counts[command] = len(got)
    assert counts == {"synthesize": 16, "simulate": 13, "sweep": 16, "apply": 7,
                      "ode": 9, "history": 8}


# -- synthesize --------------------------------------------------------------

def test_synthesize_sine_single_step(tmp_path):
    out = tmp_path / "sched.txt"
    rep = tmp_path / "rep.json"
    code = run(["synthesize", "--kind", "sine", "--sigma-lo", "0.3",
                "--sigma-hi", "0.8", "--k", "1", "--metric", "corner",
                "--schedule-out", str(out), "--report-out", str(rep)])
    assert code == 0
    sch = PhaseSchedule.from_text(out.read_text())
    assert sch.degree == 1
    assert sch.steps[0].phi == pytest.approx(np.pi)
    assert sch.steps[0].t == pytest.approx(1.0, abs=1e-6)
    report = json.loads(rep.read_text())
    assert report["k"] == 1
    assert report["synthesis"]["converged"]


def test_synthesize_then_simulate_pipeline(tmp_path):
    sched = tmp_path / "sched.txt"
    m = tmp_path / "m.json"
    rep = tmp_path / "rep.json"
    io.write_matrix(m, np.diag([0.5, 0.6]))
    code = run(["synthesize", "--kind", "identity", "--sigma-lo", "0.4",
                "--sigma-hi", "0.8", "--eps", "1e-2", "--variable-t",
                "--seed", "0", "--schedule-out", str(sched),
                "--report-out", str(tmp_path / "syn.json")])
    assert code == 0
    code = run(["simulate", "--matrix", str(m), "--schedule", str(sched),
                "--kind", "identity", "--sigma-lo", "0.4",
                "--sigma-hi", "0.8", "--eps", "1e-2",
                "--report-out", str(rep)])
    assert code == 0
    record = json.loads(rep.read_text())["verification"]
    assert record["passed"]
    assert all(s["in_domain"] for s in record["per_subspace"])


@pytest.mark.parametrize("eta", [[], ["--eta", "1e-3"]])
def test_simulate_takes_one_svd_of_a(tmp_path, monkeypatch, eta):
    m, sched = tmp_path / "m.json", tmp_path / "s.txt"
    io.write_matrix(m, np.array([[0.5, 0.1, 0.0], [0.0, 0.3, 0.2]]))
    io.write_schedule(sched, schedule_from_arrays([0.3, -1.1, 2.0],
                                                  [0.7, 1.2, 0.4]))
    calls = count_calls(monkeypatch, linalg, ("svd",))
    assert run(["simulate", "--matrix", str(m), "--schedule", str(sched),
                "--report-out", str(tmp_path / "rep.json")] + eta) == 0
    assert calls == {"svd": 1}


def test_synthesize_report_says_why_the_solver_stopped(tmp_path):
    rep = tmp_path / "rep.json"
    code = run(["synthesize", "--kind", "identity", "--sigma-lo", "0.4",
                "--sigma-hi", "0.8", "--eps", "1e-2", "--variable-t",
                "--report-out", str(rep)])
    assert code == 0
    synthesis = json.loads(rep.read_text())["synthesis"]
    assert synthesis["stop_reason"] == "eps"
    assert synthesis["max_residual"] <= 0.8e-2


def test_solver_options_default_from_solver_options(tmp_path):
    assert cli._solver_options({}) == SolverOptions()
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"eps": "0.01", "max_nfev": 7.0, "seed": 2,
                                "variable_t": False}))
    opts = cli._solver_options(merged_config(path))
    assert opts == SolverOptions(target_eps=0.01, max_nfev=7, seed=2)


def test_config_lists_match_flags(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"ks": [8, 12], "etas": "1e-3, 2e-3"}))
    assert merged_config(path, "sweep") == {"ks": [8, 12], "etas": [1e-3, 2e-3]}
    parser = cli.build_parser()
    assert parser.parse_args(["sweep", "--ks", "8,12"]).ks == [8, 12]


def test_schedule_file_reproducible(tmp_path):
    outs = []
    for name in ("a.txt", "b.txt"):
        out = tmp_path / name
        code = run(["synthesize", "--kind", "identity", "--sigma-lo", "0.35",
                    "--sigma-hi", "0.8", "--k", "8", "--seed", "3",
                    "--eps", "0.05", "--variable-t",
                    "--schedule-out", str(out),
                    "--report-out", str(tmp_path / (name + ".json"))])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


# -- sweep -------------------------------------------------------------------

def test_empty_degree_sweep_header_only(tmp_path):
    out = tmp_path / "t.csv"
    assert run(["sweep", "--mode", "degree", "--ks", "",
                "--csv-out", str(out)]) == 0
    assert out.read_text() == "k,max_residual,total_time,steps\n"


def test_degree_sweep_prints_the_csv_it_writes(tmp_path, capsys):
    argv = ["sweep", "--mode", "degree", "--kind", "identity", "--sigma-lo", "0.3",
            "--sigma-hi", "0.8", "--ks", "4,5"]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    header, row4, row5 = printed.splitlines()
    assert header == "k,max_residual,total_time,steps"
    assert row4 == "4,1.056668112073e+00,4.000000000000e+00,4"
    assert row5.startswith("5,") and row5.endswith(",5.000000000000e+00,5")
    out = tmp_path / "t.csv"
    assert run(argv + ["--csv-out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == printed


def test_noise_sweep_csv(tmp_path):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5]))
    sched = tmp_path / "s.txt"
    steps = PhaseSchedule.from_text(
        f"# hsvt-schedule v1 k=2 convention={CONVENTION}\n0.3,1\n-0.3,1\n")
    sched.write_text(steps.to_text())
    out = tmp_path / "n.csv"
    code = run(["sweep", "--mode", "noise", "--matrix", str(m),
                "--schedule", str(sched), "--etas", "0,1e-3",
                "--trials", "5", "--csv-out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "eta,mean_distance,total_time,steps"
    assert len(lines) == 3
    assert float(lines[1].split(",")[1]) == 0.0
    assert float(lines[2].split(",")[1]) > 0.0


# -- apply / ode -------------------------------------------------------------

def test_apply_writes_state_and_report(tmp_path):
    m = tmp_path / "m.json"
    io.write_matrix(m, np.diag([0.5, 0.8]))
    v = tmp_path / "v.json"
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    io.write_state(v, psi)
    rep = tmp_path / "rep.json"
    out = tmp_path / "out.json"
    code = run(["apply", "--matrix", str(m), "--state", str(v),
                "--state-out", str(out), "--report-out", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["success_prob"] == pytest.approx(0.5 * (0.25 + 0.64))
    got = io.read_state(out)
    want = np.array([0.5, 0.8]) / np.linalg.norm([0.5, 0.8])
    assert np.linalg.norm(np.abs(got) - want) < 1e-10


def test_ode_report_scalar(tmp_path):
    b = tmp_path / "b.json"
    io.write_matrix(b, [[-1.0]])
    v = tmp_path / "v.json"
    io.write_state(v, [1.0])
    rep = tmp_path / "rep.json"
    code = run(["ode", "--generator", str(b), "--state", str(v),
                "--dt", "0.01", "--steps", "100", "--report-out", str(rep)])
    assert code == 0
    report = json.loads(rep.read_text())
    assert report["final_norm"] == pytest.approx(0.99 ** 100, abs=1e-12)
    assert report["total_norm_sq"] == pytest.approx(1.0, abs=1e-12)


def test_ode_admits_sigma_max_within_the_embedding_slack(tmp_path):
    # I + B dt has sigma_max = 1 + 5e-11, which embed admits
    b, v, out = tmp_path / "b.json", tmp_path / "v.json", tmp_path / "out.json"
    gen = np.array([[0.0, 1e-3], [-1e-3, 0.0]])
    io.write_matrix(b, gen)
    io.write_state(v, [1.0, 0.0])
    assert run(["ode", "--generator", str(b), "--state", str(v), "--dt", "0.01",
                "--steps", "10", "--state-out", str(out)]) == 0
    want = np.linalg.matrix_power(np.eye(2) + 0.01 * gen, 10) @ [1.0, 0.0]
    assert np.linalg.norm(io.read_state(out) - want) <= 10 * SIGMA_MAX_SLACK


@pytest.mark.parametrize("command", ["ode", "history"])
def test_state_out_holds_the_library_result(tmp_path, command):
    m, v, out = tmp_path / "m.json", tmp_path / "v.json", tmp_path / "out.json"
    psi = np.array([0.6, 0.8j])
    io.write_state(v, psi)
    if command == "ode":
        b = np.array([[-1.0, 0.5], [-0.5, -2.0]])
        io.write_matrix(m, b)
        argv = ["ode", "--generator", str(m), "--dt", "0.1", "--steps", "3"]
        want = applications.ode_solve(applications.OdeProblem(b, 0.1, 3, psi))[1]
    else:
        a = np.array([[0.5, 0.1], [0.0, 0.3]])
        io.write_matrix(m, a)
        argv = ["history", "--matrix", str(m), "--n", "2"]
        want = applications.history_state(a, psi, n=2).history
    assert run(argv + ["--state", str(v), "--state-out", str(out),
                       "--report-out", str(tmp_path / "rep.json")]) == 0
    assert np.array_equal(io.read_state(out), want)


def test_report_excluding_timing_reproducible(tmp_path):
    reps = []
    for name in ("r1.json", "r2.json"):
        rep = tmp_path / name
        assert run(["synthesize", "--kind", "sine", "--sigma-lo", "0.3",
                    "--sigma-hi", "0.8", "--k", "1", "--metric", "corner",
                    "--seed", "5", "--report-out", str(rep)]) == 0
        d = json.loads(rep.read_text())
        d.pop("timing")
        d["config"].pop("report_out")
        reps.append(json.dumps(d, sort_keys=True))
    assert reps[0] == reps[1]


def test_synthesize_report_gives_the_noise_gain(tmp_path):
    rep, sched = tmp_path / "rep.json", tmp_path / "s.txt"
    assert run(["synthesize", "--kind", "identity", "--sigma-lo", "0.4",
                "--sigma-hi", "0.8", "--eps", "1e-2", "--variable-t",
                "--schedule-out", str(sched), "--report-out", str(rep)]) == 0
    times = PhaseSchedule.from_text(sched.read_text()).times()
    gain = json.loads(rep.read_text())["synthesis"]["noise_gain"]
    assert gain == 0.8 * np.linalg.norm(times)
