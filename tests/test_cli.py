import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import actuopt
from actuopt.cli import main
from actuopt.config import parse_config_text

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
    # the recorded text is the effective config: --out lands in out_dir
    effective = dataclasses.replace(parse_config_text(TINY_WAVE), out_dir=out)
    cfg_round = parse_config_text(summary["config_text"], source="<summary>")
    assert cfg_round == effective


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
    # trajectory; the perturbed costs come from forward_costs
    original = actuopt.core_system.solve_forward
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "actuopt" and hasattr(mod, "solve_forward"):
            monkeypatch.setattr(mod, "solve_forward", counted)
    code, _ = run_cli(tmp_path, GRADCHECK_BEAM, "gradcheck")
    assert code == 0
    assert len(calls) == 1


def test_gradcheck_wave_passes(tmp_path):
    # off-center actuator: at the symmetric center the design gradient
    # vanishes and a relative FD comparison would be pure noise
    text = (TINY_WAVE
            + "[actuator]\nwidth = 0.25\nr_init = 0.45, 0.55\n"
            + "[gradcheck]\nn_directions = 3\n")
    code, out = run_cli(tmp_path, text, "gradcheck")
    assert code == 0
    with open(os.path.join(out, "gradcheck.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["pass"] is True


def test_gradcheck_blowup_reports_failure(tmp_path, capsys):
    code, out = run_cli(tmp_path, BLOWUP_BEAM, "gradcheck")
    assert code == 1
    assert "blew up" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "gradcheck.json"))
    summary = read_summary(out)
    assert summary["status"] == "blow_up"
    assert summary["converged"] is False
    assert summary["blow_up_step"] >= 1
    assert summary["blow_up_time"] > 0.0
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
    assert summary["converged"] is True
    assert summary["j_history"][-1] <= summary["j_history"][0]
    assert summary["final_residuals"]["res_u"] >= 0.0


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
    assert summary["converged"] is False
    assert summary["blow_up_step"] >= 1
    assert summary["j_history"] is None
    assert summary["final_residuals"] is None


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
    k = int(np.argmin(data[:, 1]))
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


def test_env_var_thread_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("ACTUOPT_THREADS", "2")
    code, out = run_cli(tmp_path, TINY_BEAM, "simulate")
    assert code == 0
    assert read_summary(out)["threads"] == 2


@pytest.mark.parametrize("argv_tail,env", [
    (("--threads", "0"), None),
    ((), "abc"),
    ((), "-3"),
], ids=["zero", "garbage", "negative"])
def test_bad_thread_counts_are_usage_errors(tmp_path, monkeypatch, argv_tail, env):
    if env is not None:
        monkeypatch.setenv("ACTUOPT_THREADS", env)
    cfg = write_cfg(tmp_path, TINY_BEAM)
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 *argv_tail])
    assert code == 2


def test_config_errors_exit_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "[run]\nmodel = beam\nbogus = 1\n")
    code = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    assert "unknown key" in capsys.readouterr().err


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
