import json
import os
import subprocess
import sys

import numpy as np
import pytest

import actuopt
from actuopt.cli import main
from actuopt.config import parse_config_text
from actuopt.core_system import Discretization, StepSolverError
from actuopt.optimizer import GRID_TIE

PYPROJECT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "pyproject.toml")

TINY_BEAM = """\
[run]
model = beam
[time]
t_final = 0.3
n_steps = 30
[beam]
n_cells = 12
"""

TINY_WAVE = """\
[run]
model = wave
[time]
t_final = 0.4
n_steps = 40
[wave]
nx = 12
ny = 12
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run_cli(tmp_path, text, command, sub="out", extra=()):
    cfg = write_cfg(tmp_path, text)
    out = str(tmp_path / sub)
    code = main([command, "--config", cfg, "--out", out, *extra])
    return code, out


def read_summary(out):
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    header = lines[0].split(",")
    rows = [ln for ln in lines[1:] if ln and not ln.startswith("#")]
    data = np.array([[float(v) for v in ln.split(",")] for ln in rows])
    markers = [ln for ln in lines[1:] if ln.startswith("#")]
    return header, data, markers


def test_simulate_writes_trajectory_and_summary(tmp_path):
    code, out = run_cli(tmp_path, TINY_BEAM, "simulate")
    assert code == 0
    header, data, markers = read_csv(os.path.join(out, "trajectory.csv"))
    assert header[:2] == ["t", "energy"]
    assert header[2].startswith("w_at_")
    assert data.shape[0] == 31
    assert not markers
    summary = read_summary(out)
    assert summary["command"] == "simulate"
    assert summary["status"] == "ok"
    assert summary["model"] == "beam"
    assert "trajectory.csv" in summary["files"]


def test_simulate_reruns_byte_identical(tmp_path):
    code1, out1 = run_cli(tmp_path, TINY_BEAM, "simulate", sub="a")
    code2, out2 = run_cli(tmp_path, TINY_BEAM, "simulate", sub="b")
    assert code1 == code2 == 0
    a = open(os.path.join(out1, "trajectory.csv"), "rb").read()
    b = open(os.path.join(out2, "trajectory.csv"), "rb").read()
    assert a == b
    assert b"\r" not in a  # LF only


def test_simulate_zero_state_stays_zero(tmp_path):
    text = TINY_BEAM + "[init]\nkind = zero\n"
    code, out = run_cli(tmp_path, text, "simulate")
    assert code == 0
    _, data, _ = read_csv(os.path.join(out, "trajectory.csv"))
    assert np.all(data[:, 1:] == 0.0)


def test_simulate_energy_constant_when_conservative(tmp_path):
    # appended keys continue the [beam] section that TINY_BEAM leaves open
    text = TINY_BEAM.rstrip() + "\nalpha = 0.0\nmu = 0.0\nc_d = 0.0\n"
    code, out = run_cli(tmp_path, text, "simulate")
    assert code == 0
    _, data, _ = read_csv(os.path.join(out, "trajectory.csv"))
    e = data[:, 1]
    assert np.max(np.abs(e - e[0])) <= 1e-6 * e[0]


def test_simulate_probe_positions_named_in_header(tmp_path):
    text = TINY_BEAM + "[output]\nprobe = 0.25, 0.75\n"
    code, out = run_cli(tmp_path, text, "simulate")
    assert code == 0
    header, data, _ = read_csv(os.path.join(out, "trajectory.csv"))
    assert header[2:] == ["w_at_0.25", "w_at_0.75"]
    # symmetric standing mode: both probes read the same deflection
    np.testing.assert_allclose(data[:, 2], data[:, 3], atol=1e-12)


# the forward solve leaves the state ceiling near step 28 of 50
BLOWUP_BEAM = """\
[run]
model = beam
[time]
t_final = 2.0
n_steps = 50
[beam]
n_cells = 16
alpha = 80.0
[init]
kind = sine
amplitude = 2.5
"""


def test_simulate_blowup_truncates_with_marker(tmp_path):
    code, out = run_cli(tmp_path, BLOWUP_BEAM, "simulate")
    assert code == 1
    header, data, markers = read_csv(os.path.join(out, "trajectory.csv"))
    assert len(markers) == 1
    assert markers[0].startswith("# truncated at step")
    assert data.shape[0] < 51
    assert np.all(np.isfinite(data))
    summary = read_summary(out)
    assert summary["status"] == "blow_up"
    assert summary["n_steps_completed"] == data.shape[0] - 1


def test_summary_config_text_round_trips(tmp_path):
    code, out = run_cli(tmp_path, TINY_WAVE, "simulate")
    assert code == 0
    summary = read_summary(out)
    cfg_round = parse_config_text(summary["config_text"], source="<summary>")
    assert cfg_round == parse_config_text(TINY_WAVE)


GRADCHECK_BEAM = """\
[run]
model = beam
[time]
t_final = 0.4
n_steps = 40
[beam]
n_cells = 12
[actuator]
width = 0.2
r_init = 0.43
[gradcheck]
n_directions = 3
"""


def test_gradcheck_beam_passes(tmp_path):
    code, out = run_cli(tmp_path, GRADCHECK_BEAM, "gradcheck")
    assert code == 0
    with open(os.path.join(out, "gradcheck.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["pass"] is True
    assert report["failed_checks"] == []
    assert report["duality_rel"] <= 1e-10
    assert report["fd_u_rel"] <= 1e-5
    assert report["fd_r_rel"] <= 1e-5


def test_gradcheck_integrates_its_base_trajectory_once(tmp_path, monkeypatch):
    # the duality pairs and the finite-difference check share one base
    # trajectory; the perturbed costs come from forward_costs, and each of
    # the 5 duality pairs is checked alone
    calls = {"solve_forward": [], "duality_check": []}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return original(*args, **kwargs)
        return wrapper

    originals = {"solve_forward": actuopt.core_system.solve_forward,
                 "duality_check": actuopt.adjoint_grad.duality_check}
    for name, mod in list(sys.modules.items()):
        for fn, original in originals.items():
            if name.split(".")[0] == "actuopt" and hasattr(mod, fn):
                monkeypatch.setattr(mod, fn, counted(fn, original))
    code, _ = run_cli(tmp_path, GRADCHECK_BEAM, "gradcheck")
    assert code == 0
    assert len(calls["solve_forward"]) == 1
    assert len(calls["duality_check"]) == 5
    assert all(args[3].ndim == 1 for args in calls["duality_check"])  # one u~


# off-center actuator: at the symmetric center the design gradient
# vanishes and a relative FD comparison would be pure noise
GRADCHECK_WAVE = (TINY_WAVE
                  + "[actuator]\nwidth = 0.25\nr_init = 0.45, 0.55\n"
                  + "[gradcheck]\nn_directions = 3\n")


def test_gradcheck_wave_passes(tmp_path):
    code, out = run_cli(tmp_path, GRADCHECK_WAVE, "gradcheck")
    assert code == 0
    with open(os.path.join(out, "gradcheck.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["pass"] is True


@pytest.mark.parametrize("text", [GRADCHECK_BEAM, GRADCHECK_WAVE],
                         ids=["beam", "wave"])
def test_gradcheck_duality_rel_is_the_check_of_its_pairs(tmp_path, text):
    # the 5 pairs drawn pair by pair from the seed, u~ then x_hat, and
    # checked one at a time give the duality_rel that gradcheck reports
    code, out = run_cli(tmp_path, text, "gradcheck")
    assert code == 0
    with open(os.path.join(out, "gradcheck.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    cfg = parse_config_text(text)
    prob = actuopt.build_problem(cfg)
    disc, grid, r = prob["disc"], prob["grid"], prob["r_init"]
    u = np.sin(2.0 * np.pi * grid.times / grid.t_final)  # u0 is zero
    assert not np.any(prob["u0"])
    x_traj = actuopt.solve_forward(disc, prob["x0"], u, r, grid)
    rng = np.random.default_rng(cfg.seed)
    defects = []
    for _ in range(5):
        u_tilde = rng.standard_normal(u.size)
        x_hat = rng.standard_normal(x_traj.shape)
        defects.append(actuopt.duality_check(disc, x_traj, r, u_tilde, x_hat, grid))
    assert report["duality_rel"] == max(defects)


def test_gradcheck_holds_under_three_trajectories(tmp_path):
    # the base trajectory and one x_hat buffer reused by the 5 duality
    # pairs, then the finite-difference check, which stores its multipliers
    # over the base trajectory and sweeps its points in column blocks. On a
    # 12x12 wave with 10 directions the finite-difference check sets the
    # peak whatever the duality pairs hold, so the grid is 24x24 and there
    # is one direction
    import tracemalloc

    text = """\
[run]
model = wave
[time]
n_steps = 400
[wave]
nx = 24
ny = 24
[actuator]
r_init = 0.45, 0.55
[gradcheck]
n_directions = 1
"""
    prob = actuopt.build_problem(parse_config_text(text))
    traj_bytes = (prob["grid"].n_steps + 1) * prob["disc"].n_dof * 8
    tracemalloc.start()
    try:
        code, _ = run_cli(tmp_path, text, "gradcheck")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 3 * traj_bytes


def test_gradcheck_nan_duality_defect_fails(tmp_path, monkeypatch, capsys):
    # a NaN defect among the 5 fails the duality check and is written as
    # null, whatever the other defects are
    import actuopt.cli as cli

    defects = iter([1e-16, np.nan, 0.0, 0.0, 0.0])
    monkeypatch.setattr(cli, "duality_check", lambda *args: next(defects))
    code, out = run_cli(tmp_path, GRADCHECK_BEAM, "gradcheck")
    assert code == 1
    assert "duality" in capsys.readouterr().err
    with open(os.path.join(out, "gradcheck.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["duality_rel"] is None
    assert report["failed_checks"] == ["duality"]
    assert report["pass"] is False


def test_gradcheck_fails_a_duality_defect_ten_times_its_tolerance(
        tmp_path, monkeypatch, capsys):
    # 1e-9 lies between the 1e-10 gate and the 3.2e-9 defect of the beam
    # default, so a gate loosened to that defect would pass it
    import actuopt.cli as cli

    monkeypatch.setattr(cli, "duality_check", lambda *args: 1e-9)
    code, out = run_cli(tmp_path, GRADCHECK_BEAM, "gradcheck")
    assert code == 1
    assert capsys.readouterr().err == "actuopt gradcheck: failed checks: duality\n"
    with open(os.path.join(out, "gradcheck.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["duality_rel"] == 1e-9
    assert report["failed_checks"] == ["duality"]


def test_gradcheck_writes_non_finite_fd_results_as_null(tmp_path, monkeypatch, capsys):
    # a NaN finite-difference error fails its check; it and a non-finite
    # cost are written as null, so gradcheck.json stays valid JSON
    import actuopt.cli as cli

    monkeypatch.setattr(cli, "gradient_fd_check", lambda *args, **kwargs: {
        "fd_u_rel": 1e-9, "fd_r_rel": np.nan, "j": np.inf})
    code, out = run_cli(tmp_path, GRADCHECK_BEAM, "gradcheck")
    assert code == 1
    assert "fd_r" in capsys.readouterr().err

    def reject(name):
        raise AssertionError(f"{name} in gradcheck.json")

    with open(os.path.join(out, "gradcheck.json"), encoding="utf-8") as fh:
        report = json.loads(fh.read(), parse_constant=reject)
    assert report["fd_r_rel"] is None and report["j"] is None
    assert report["fd_u_rel"] == 1e-9
    assert report["failed_checks"] == ["fd_r"]
    assert report["pass"] is False


def test_gradcheck_blowup_reports_failure(tmp_path, capsys):
    code, out = run_cli(tmp_path, BLOWUP_BEAM, "gradcheck")
    assert code == 1
    assert "blew up" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "gradcheck.json"))
    summary = read_summary(out)
    assert summary["status"] == "blow_up"
    assert "converged" not in summary
    assert summary["blow_up_step"] >= 1
    assert summary["blow_up_time"] > 0.0
    assert summary["files"] == ["summary.json"]


def test_gradcheck_rejects_an_actuator_within_fd_step_of_the_edge(tmp_path, capsys):
    # r_init = 0.1 is a valid centre for the wave's 0.1 width, but the design
    # difference at r - 0.01 would push the actuator out of the domain
    text = """\
[run]
model = wave
[time]
t_final = 0.2
n_steps = 20
[wave]
nx = 8
ny = 8
[actuator]
r_init = 0.1, 0.5
"""
    code, out = run_cli(tmp_path, text, "gradcheck")
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "component 1" in err[0] and "0.01" in err[0]
    assert not os.path.exists(os.path.join(out, "gradcheck.json"))
    summary = read_summary(out)
    assert summary["status"] == "config_error"
    assert summary["files"] == ["summary.json"]


def test_gradcheck_corrupt_mode_fails(tmp_path, capsys):
    text = """\
[run]
model = beam
[time]
t_final = 0.4
n_steps = 40
[beam]
n_cells = 12
[actuator]
width = 0.2
r_init = 0.43
[gradcheck]
n_directions = 2
corrupt = true
"""
    code, out = run_cli(tmp_path, text, "gradcheck")
    assert code == 1
    err = capsys.readouterr().err
    assert "fd_u" in err
    with open(os.path.join(out, "gradcheck.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["pass"] is False
    assert "fd_u" in report["failed_checks"]


OPT_BEAM = """\
[run]
model = beam
[time]
t_final = 0.4
n_steps = 40
[beam]
n_cells = 16
[actuator]
r_init = 0.42
[optimizer]
tol_grad = 1e-4
max_iters = 60
"""


def test_optimize_writes_history_and_design(tmp_path):
    code, out = run_cli(tmp_path, OPT_BEAM, "optimize")
    assert code == 0
    header, hist, _ = read_csv(os.path.join(out, "optim_history.csv"))
    assert header[:4] == ["iter", "j", "res_u", "res_r"]
    js = hist[:, 1]
    assert np.all(np.diff(js) <= 1e-14)
    with open(os.path.join(out, "optimal_r.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    assert design["converged"] is True
    assert design["status"] == "converged"
    uh, udata, _ = read_csv(os.path.join(out, "optimal_u.csv"))
    assert uh == ["t", "u"]
    assert udata.shape == (41, 2)
    summary = read_summary(out)
    assert summary["status"] == "converged"
    assert "converged" not in summary and "j_history" not in summary
    # the residuals of the last history row
    assert summary["final_residuals"] == {"res_u": hist[-1, 2], "res_r": hist[-1, 3]}


def test_optimize_zero_problem_trivially_converges(tmp_path):
    text = OPT_BEAM + "[init]\nkind = zero\n"
    code, out = run_cli(tmp_path, text, "optimize")
    assert code == 0
    with open(os.path.join(out, "optimal_r.json"), encoding="utf-8") as fh:
        design = json.load(fh)
    assert design["j_final"] == 0.0
    assert design["n_iters"] == 0


def test_optimize_initial_blowup_reports_failure(tmp_path):
    code, out = run_cli(tmp_path, BLOWUP_BEAM, "optimize")
    assert code == 1
    summary = read_summary(out)
    assert summary["status"] == "blow_up"
    assert summary["blow_up_step"] >= 1
    assert not {"converged", "j_history", "final_residuals"} & set(summary)


GRID_BEAM = """\
[run]
model = beam
[time]
t_final = 0.3
n_steps = 30
[beam]
n_cells = 12
[admissible]
r_box = 0.3, 0.7
[gridsearch]
n_grid = 8
[optimizer]
tol_grad = 1e-3
max_iters = 40
"""


def test_gridsearch_writes_landscape(tmp_path):
    code, out = run_cli(tmp_path, GRID_BEAM, "gridsearch")
    assert code == 0
    header, data, _ = read_csv(os.path.join(out, "landscape.csv"))
    assert header == ["r1", "j", "converged"]
    assert data.shape[0] == 8
    np.testing.assert_allclose(data[:, 0], np.linspace(0.3, 0.7, 8), atol=1e-15)
    assert np.all(data[:, 2] == 1.0)
    summary = read_summary(out)
    assert summary["status"] == "ok"
    # the first point in grid order within GRID_TIE of the minimum wins;
    # best_j is J there
    j_min = data[:, 1].min()
    k = int(np.flatnonzero(data[:, 1] <= j_min + GRID_TIE * abs(j_min))[0])
    assert summary["best_r"] == [data[k, 0]]
    assert summary["best_j"] == data[k, 1]


def test_gridsearch_honours_optimizer_section(tmp_path):
    # without tol_grad the default 2e-6 needs more than three iterations at
    # some design points; the CLI must pass the cap to every point's solve
    text = GRID_BEAM.replace("tol_grad = 1e-3\n", "").replace(
        "max_iters = 40", "max_iters = 3")
    code, out = run_cli(tmp_path, text, "gridsearch")
    assert code == 0
    _, data, _ = read_csv(os.path.join(out, "landscape.csv"))
    assert np.any(data[:, 2] == 0.0)


def test_gridsearch_names_the_cause_when_every_point_fails(tmp_path, capsys):
    text = BLOWUP_BEAM + "[gridsearch]\nn_grid = 8\n"
    code, out = run_cli(tmp_path, text, "gridsearch")
    assert code == 1
    err = capsys.readouterr().err
    assert "failed at every design point" in err
    assert "blow-up at step" in err
    assert read_summary(out)["status"] == "failed"


def test_gridsearch_thread_pool_equivalent(tmp_path):
    code1, out1 = run_cli(tmp_path, GRID_BEAM, "gridsearch", sub="s1")
    code2, out2 = run_cli(tmp_path, GRID_BEAM, "gridsearch", sub="s2",
                          extra=("--threads", "2"))
    assert code1 == code2 == 0
    a = open(os.path.join(out1, "landscape.csv"), "rb").read()
    b = open(os.path.join(out2, "landscape.csv"), "rb").read()
    assert a == b
    assert read_summary(out2)["threads"] == 2


ORACLE_BEAM = """\
[run]
model = beam
[time]
t_final = 0.4
n_steps = 40
[beam]
n_cells = 16
ei = 1.0
k = 0.0
[control]
kind = sine
"""


def test_oracle_compare_beam(tmp_path):
    code, out = run_cli(tmp_path, ORACLE_BEAM, "oracle-compare")
    assert code == 0
    with open(os.path.join(out, "oracle_compare.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["pass"] is True
    assert report["adjoint_rel_linf"] <= 1e-2
    assert report["n_steps_used"] == 80
    greens = report["greens"]
    assert greens is not None and greens["pass"] is True


def test_oracle_compare_zero_cost_metric_vanishes(tmp_path):
    text = TINY_WAVE + "[cost]\nq1 = zero\nq2 = zero\n"
    code, out = run_cli(tmp_path, text, "oracle-compare")
    assert code == 0
    with open(os.path.join(out, "oracle_compare.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["adjoint_rel_linf"] == 0.0
    assert report["greens"] is None


TINY_CI = """\
[run]
model = beam
[time]
t_final = 0.1
n_steps = 10
[beam]
n_cells = 12
"""

STEP_FAILED = "implicit step system (I - dt/2 A) singular"
BLOWN_AT_28 = "state blow-up at step 28 (t = 1.12); partial trajectory of 28 rows retained"

# command, config, exit code, status, stderr line (None: empty)
OUTCOMES = {
    "simulate-ok": ("simulate", TINY_BEAM, 0, "ok", None),
    "simulate-blow_up": ("simulate", BLOWUP_BEAM, 1, "blow_up", BLOWN_AT_28),
    "gradcheck-ok": ("gradcheck", GRADCHECK_BEAM, 0, "ok", None),
    "gradcheck-check_failed": ("gradcheck", GRADCHECK_BEAM + "corrupt = true\n", 1,
                               "check_failed", "failed checks: fd_u, fd_r"),
    "gradcheck-config_error": (
        "gradcheck", TINY_WAVE + "[actuator]\nr_init = 0.1, 0.5\n", 2,
        "config_error", "[actuator] r_init component 1 must lie at least "
        "0.01 inside [0.1, 0.9] for the finite differences"),
    "gradcheck-blow_up": ("gradcheck", BLOWUP_BEAM, 1, "blow_up",
                          "forward solve blew up (step 29, t = 1.16)"),
    "optimize-converged": ("optimize", TINY_CI, 0, "converged", None),
    "optimize-max_iters": ("optimize", TINY_CI + "[optimizer]\nmax_iters = 1\n", 1,
                           "max_iters", "did not converge (status: max_iters)"),
    "optimize-blow_up": ("optimize", BLOWUP_BEAM, 1, "blow_up",
                         "forward solve blew up (step 28, t = 1.12)"),
    "gridsearch-ok": ("gridsearch", GRID_BEAM, 0, "ok", None),
    "gridsearch-failed": (
        "gridsearch", BLOWUP_BEAM + "[gridsearch]\nn_grid = 8\n", 1, "failed",
        "grid search failed at every design point; the first: " + BLOWN_AT_28),
    "oracle-compare-ok": ("oracle-compare", ORACLE_BEAM, 0, "ok", None),
    "oracle-compare-check_failed": ("oracle-compare", BLOWUP_BEAM, 1, "check_failed",
                                    "relative error 1.452e-01 (tolerance 0.01)"),
    # step_failed: the step system cannot be factorised (step_factors raises)
    **{f"{command}-step_failed": (command, TINY_BEAM, 1, "step_failed", STEP_FAILED)
       for command in ("simulate", "gradcheck", "optimize", "oracle-compare")},
}


def _singular_step(self, dt):
    # a dt that resonates with A, e.g. t_final = 1e300 with n_steps = 4,
    # overflows before it reaches the factorisation, so the error is planted
    raise StepSolverError(STEP_FAILED)


@pytest.mark.parametrize("outcome", OUTCOMES)
def test_every_command_outcome(tmp_path, capsys, monkeypatch, outcome):
    # the exit code follows from the status alone; the stderr line is the
    # command's message; summary.json lists exactly the files written and
    # carries only the keys its command fills
    command, text, code, status, message = OUTCOMES[outcome]
    if status == "step_failed":
        monkeypatch.setattr(Discretization, "step_factors", _singular_step)
    got, out = run_cli(tmp_path, text, command)
    err = capsys.readouterr().err
    assert got == code
    summary = read_summary(out)
    assert summary["status"] == status
    assert None not in summary.values()
    assert not {"converged", "j_history"} & set(summary)
    assert err == ("" if message is None else f"actuopt {command}: {message}\n")
    assert sorted(summary["files"]) == sorted(os.listdir(out))
    assert summary["files"][-1] == "summary.json"


def test_help_lists_the_five_commands(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "200")  # one line per command
    assert main(["--help"]) == 0
    lines = [" ".join(ln.split()) for ln in capsys.readouterr().out.splitlines()]
    for line in [
        "simulate integrate the forward model and write a trajectory CSV",
        "gradcheck verify adjoint gradients against duality and finite differences",
        "optimize run the projected-gradient solver for (u, r)",
        "gridsearch sweep actuator positions with per-point control solves",
        "oracle-compare compare the discrete adjoint against the "
        "continuous-adjoint oracle",
    ]:
        assert line in lines


def test_threads_environment_variable_is_not_read(tmp_path, monkeypatch):
    # --threads is the one source of the worker count, default 1
    monkeypatch.setenv("ACTUOPT_THREADS", "abc")
    code, out = run_cli(tmp_path, TINY_BEAM, "simulate")
    assert code == 0
    assert read_summary(out)["threads"] == 1


@pytest.mark.parametrize("value,message", [
    ("0", "--threads must be >= 1, got 0"),
    ("abc", "argument --threads: invalid int value: 'abc'"),
    ("-3", "--threads must be >= 1, got -3"),
], ids=["zero", "garbage", "negative"])
def test_bad_thread_counts_are_usage_errors(tmp_path, capsys, value, message):
    cfg = write_cfg(tmp_path, TINY_BEAM)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", value])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[run]\nmodel = beam\nbogus = 1\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


def test_out_is_the_one_output_directory(tmp_path, monkeypatch):
    # without --out the files go to runs/out under the working directory
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, TINY_BEAM)
    assert main(["simulate", "--config", cfg]) == 0
    assert sorted(os.listdir(tmp_path / "runs" / "out")) == [
        "summary.json", "trajectory.csv"]


def test_output_directory_in_the_config_exits_2(tmp_path, monkeypatch, capsys):
    # [output] out_dir is not a key: --out is the only output directory
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, TINY_BEAM + "[output]\nout_dir = elsewhere\n")
    code = main(["simulate", "--config", cfg])
    assert code == 2
    assert (f"{cfg}:9: unknown key 'out_dir' in section [output] (known: probe)"
            in capsys.readouterr().err)
    assert os.listdir(tmp_path) == ["run.cfg"]


def test_values_that_would_fail_later_exit_2(tmp_path, capsys):
    # n_grid = 4 used to pass the parser and end in a ValueError, exit 1
    code, out = run_cli(tmp_path, GRID_BEAM.replace("n_grid = 8", "n_grid = 4"),
                        "gridsearch")
    assert code == 2
    assert ":11: bad value for 'n_grid': expected an integer >= 8, got '4'" in (
        capsys.readouterr().err)
    assert not os.path.exists(out)


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_unmakeable_output_directory_exits_2(tmp_path, capsys, out):
    # an existing file, or a path below one, cannot become the directory
    (tmp_path / "afile").write_text("", encoding="utf-8")
    code, _ = run_cli(tmp_path, TINY_BEAM, "simulate", sub=out)
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith("actuopt: cannot create output directory ")
    assert (tmp_path / "afile").read_text(encoding="utf-8") == ""


@pytest.mark.parametrize("name", ["trajectory.csv", "summary.json"])
def test_unwritable_output_file_exits_2(tmp_path, capsys, name):
    # a directory where an output file goes makes its write fail, even as
    # root: one stderr line, exit 2, and no temporary file left behind
    (tmp_path / "out" / name).mkdir(parents=True)
    code, out = run_cli(tmp_path, TINY_BEAM, "simulate")
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"actuopt: cannot write {os.path.join(out, name)}: ")
    # the files before the failed one stay, and nothing else
    assert sorted(os.listdir(out)) == sorted({"trajectory.csv", name})


def test_non_utf8_config_file_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"\xff\xfe" + TINY_BEAM.encode("utf-8"))
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"cannot read config file {cfg}" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


def test_missing_config_file_exits_2(tmp_path):
    code = main(["simulate", "--config", str(tmp_path / "missing.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    code = main([])
    assert code == 2
    capsys.readouterr()


def _console_script_argv(name):
    """The command that pip's wrapper for console script ``name`` runs.

    The target is read from ``[project.scripts]`` in pyproject.toml, so a
    broken declaration fails the caller. The wrapper imports the target and
    passes its return value to ``sys.exit``.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"][name]
    module, func = target.split(":")
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    return [sys.executable, "-c", code]


def _checkout_env():
    """Environment whose PYTHONPATH starts at the imported ``actuopt``."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(actuopt.__file__)))
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + rest if rest else "")
    return env


def _check_simulate_exit_codes(argv, tmp_path):
    """`argv simulate` exits 0 with a trajectory, and 2 on a missing config."""
    env = _checkout_env()
    cfg = write_cfg(tmp_path, TINY_BEAM)
    out = str(tmp_path / "sub")
    proc = subprocess.run(
        [*argv, "simulate", "--config", cfg, "--out", out],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert os.path.exists(os.path.join(out, "trajectory.csv"))

    proc = subprocess.run(
        [*argv, "simulate", "--config", str(tmp_path / "missing.cfg"),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 2, proc.stderr


def test_console_entry_point_subprocess(tmp_path):
    _check_simulate_exit_codes(_console_script_argv("actuopt"), tmp_path)


def test_python_dash_m_runs_the_cli(tmp_path):
    _check_simulate_exit_codes([sys.executable, "-m", "actuopt"], tmp_path)
