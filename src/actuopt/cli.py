"""Configuration-driven command-line front end.

Subcommands: simulate, gradcheck, optimize, gridsearch, oracle-compare.
Outputs are CSV time series / landscapes plus a summary.json per run.
Exit codes: 0 success, 1 contract failure (tolerance violation, blow-up,
non-convergence), 2 configuration or usage error.

All files are written atomically (temp file in the target directory, then
rename). CSV numbers use 17 significant digits so 64-bit floats round-trip
exactly; line endings are LF.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

import numpy as np

from .adjoint_grad import adjoint_compare, duality_check, gradient_fd_check
from .config import (
    ConfigError,
    build_problem,
    canonical_text,
    control_series,
    load_config,
)
from .core_system import BlowUpError, TimeGrid, energy_series, solve_forward
from .models import MODELS
from .optimizer import grid_search_r, optimize

DUALITY_TOL = 1e-10
FD_TOL = 1e-5
ORACLE_TOL = 1e-2


def _fmt(x):
    return "%.17g" % float(x)


def _cell(v):
    if isinstance(v, (bool, np.bool_, int, np.integer)):
        return str(int(v))
    return _fmt(v)


def _write_text(path, text):
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_csv(path, header, rows, trailer=None):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    if trailer is not None:
        lines.append(trailer)
    _write_text(path, "\n".join(lines) + "\n")


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _finite_or_none(x):
    x = float(x)
    return x if np.isfinite(x) else None


def _probe_columns(cfg, prob, traj):
    """Resolve probe points to (header names, displacement column arrays)."""
    pts = prob["probe_pts"]
    names = ["w_at_" + "_".join("%g" % c for c in pt) for pt in pts]
    return names, MODELS[cfg.model].probe_columns(prob["disc"], pts, traj)


# Each command takes (cfg, prob, out_dir, threads), writes its own files and
# returns (exit code, status, converged, files written, extra summary keys);
# main times it together with build_problem and writes summary.json, where
# j_history and final_residuals are null unless the command sets them. A
# BlowUpError that leaves a command becomes a blow_up summary with exit 1.


def cmd_simulate(cfg, prob, out_dir, threads):
    disc, grid = prob["disc"], prob["grid"]
    status = "ok"
    exit_code = 0
    trailer = None
    try:
        traj = solve_forward(disc, prob["x0"], prob["u0"], prob["r_init"], grid)
        times = grid.times
    except BlowUpError as exc:
        traj = exc.partial
        times = grid.times[: traj.shape[0]]
        trailer = f"# truncated at step {exc.step}, t = {_fmt(exc.time)}"
        status = "blow_up"
        exit_code = 1
        print(f"actuopt simulate: {exc}", file=sys.stderr)

    energy = energy_series(disc, traj)
    names, cols = _probe_columns(cfg, prob, traj)
    rows = list(zip(times, energy, *cols))
    _write_csv(os.path.join(out_dir, "trajectory.csv"),
               ["t", "energy"] + names, rows, trailer)
    return exit_code, status, None, ["trajectory.csv"], {
        "n_steps_completed": int(traj.shape[0] - 1),
    }


def cmd_gradcheck(cfg, prob, out_dir, threads):
    disc, grid, cost = prob["disc"], prob["grid"], prob["cost"]
    r, u = prob["r_init"], prob["u0"]
    if not np.any(u):
        # a zero control would make J independent of r; exercise the design
        # gradient with a deterministic unit sine instead
        u = np.sin(2.0 * np.pi * grid.times / grid.t_final)

    x_traj = solve_forward(disc, prob["x0"], u, r, grid)
    rng = np.random.default_rng(cfg.seed)
    duality_max = 0.0
    for _ in range(5):
        u_tilde = rng.standard_normal(u.size)
        x_hat = rng.standard_normal(x_traj.shape)
        duality_max = max(
            duality_max, duality_check(disc, x_traj, r, u_tilde, x_hat, grid)
        )
    fd = gradient_fd_check(
        disc, cost, x_traj, u, r, grid,
        n_directions=cfg.n_directions, seed=cfg.seed, corrupt=cfg.corrupt,
    )

    failed = []
    if not duality_max <= DUALITY_TOL:
        failed.append("duality")
    if not fd["fd_u_rel"] <= FD_TOL:
        failed.append("fd_u")
    if not fd["fd_r_rel"] <= FD_TOL:
        failed.append("fd_r")

    report = {
        "duality_rel": duality_max,
        "fd_u_rel": fd["fd_u_rel"],
        "fd_r_rel": fd["fd_r_rel"],
        "j": fd["j"],
        "tolerances": {"duality": DUALITY_TOL, "fd": FD_TOL},
        "pass": not failed,
        "failed_checks": failed,
    }
    _write_text(os.path.join(out_dir, "gradcheck.json"), _json_text(report))
    if failed:
        print(f"actuopt gradcheck: failed checks: {', '.join(failed)}",
              file=sys.stderr)
    return (1 if failed else 0, "check_failed" if failed else "ok", None,
            ["gradcheck.json"], {})


def cmd_optimize(cfg, prob, out_dir, threads):
    run = optimize(
        prob["disc"], prob["cost"], prob["x0"], prob["u0"], prob["r_init"],
        prob["pspec"], cfg.opt, prob["grid"],
    )
    r_dim = run.r.size
    hist_cols = (["iter", "j", "res_u", "res_r"]
                 + [f"r{c + 1}" for c in range(r_dim)]
                 + ["alpha_u", "alpha_r", "backtracks", "u_norm"])
    hist_rows = [[row[c] for c in hist_cols] for row in run.history]
    _write_csv(os.path.join(out_dir, "optim_history.csv"), hist_cols, hist_rows)

    _write_csv(os.path.join(out_dir, "optimal_u.csv"), ["t", "u"],
               list(zip(prob["grid"].times, run.u)))

    r_report = {
        "r": [float(v) for v in run.r],
        "j_final": run.j_final,
        "converged": run.converged,
        "status": run.status,
        "n_iters": run.n_iters,
    }
    _write_text(os.path.join(out_dir, "optimal_r.json"), _json_text(r_report))

    if not run.converged:
        print(f"actuopt optimize: did not converge (status: {run.status})",
              file=sys.stderr)
    last = run.history[-1]
    files = ["optim_history.csv", "optimal_u.csv", "optimal_r.json"]
    return 0 if run.converged else 1, run.status, run.converged, files, {
        "j_history": [row["j"] for row in run.history],
        "final_residuals": {"res_u": last["res_u"], "res_r": last["res_r"]},
    }


def cmd_gridsearch(cfg, prob, out_dir, threads):
    r_dim = prob["r_init"].size
    try:
        best, table = grid_search_r(
            prob["disc"], prob["cost"], prob["x0"], prob["pspec"],
            n_grid=cfg.n_grid, grid=prob["grid"], config=cfg.opt,
            threads=threads,
        )
    except RuntimeError as exc:
        print(f"actuopt gridsearch: {exc}", file=sys.stderr)
        return 1, "failed", None, [], {}

    header = [f"r{c + 1}" for c in range(r_dim)] + ["j", "converged"]
    _write_csv(os.path.join(out_dir, "landscape.csv"), header, table)

    best_j = min(row[r_dim] for row in table
                 if row[r_dim + 1] and np.isfinite(row[r_dim]))
    return 0, "ok", None, ["landscape.csv"], {
        "best_r": [float(v) for v in best],
        "best_j": best_j,
    }


def cmd_oracle_compare(cfg, prob, out_dir, threads):
    disc, cost = prob["disc"], prob["cost"]
    # refine the time grid: the oracle and the discrete adjoint only have to
    # agree up to time-discretization error
    grid2 = TimeGrid(cfg.t_final, 2 * cfg.n_steps)
    u2 = control_series(cfg, grid2.times)
    x_traj = solve_forward(disc, prob["x0"], u2, prob["r_init"], grid2)
    rel = adjoint_compare(disc, cost, x_traj, grid2)
    greens = MODELS[cfg.model].greens_check(cfg.params)
    ok = bool(rel <= ORACLE_TOL) and (greens is None or greens["pass"])

    report = {
        "adjoint_rel_linf": _finite_or_none(rel),
        "tol": ORACLE_TOL,
        "n_steps_used": grid2.n_steps,
        "greens": greens,
        "pass": ok,
    }
    _write_text(os.path.join(out_dir, "oracle_compare.json"), _json_text(report))
    if not ok:
        print(f"actuopt oracle-compare: relative error {rel:.3e} "
              f"(tolerance {ORACLE_TOL:g})", file=sys.stderr)
    return (0 if ok else 1, "ok" if ok else "check_failed", None,
            ["oracle_compare.json"], {})


_COMMANDS = {
    "simulate": cmd_simulate,
    "gradcheck": cmd_gradcheck,
    "optimize": cmd_optimize,
    "gridsearch": cmd_gridsearch,
    "oracle-compare": cmd_oracle_compare,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="actuopt",
        description="Optimal control and actuator design for semi-linear "
                    "beam and wave models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "simulate": "integrate the forward model and write a trajectory CSV",
        "gradcheck": "verify adjoint gradients against duality and finite "
                     "differences",
        "optimize": "run the projected-gradient solver for (u, r)",
        "gridsearch": "sweep actuator positions with per-point control solves",
        "oracle-compare": "compare the discrete adjoint against the "
                          "continuous-adjoint oracle",
    }
    for name in _COMMANDS:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--out", default=None,
                       help="output directory (overrides [output] out_dir)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker processes for gridsearch "
                            "(default: ACTUOPT_THREADS or 1)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"actuopt: config error: {exc}", file=sys.stderr)
        return 2

    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)

    threads = args.threads
    if threads is None:
        env = os.environ.get("ACTUOPT_THREADS", "").strip()
        if env:
            try:
                threads = int(env)
            except ValueError:
                print(f"actuopt: ACTUOPT_THREADS must be an integer, "
                      f"got {env!r}", file=sys.stderr)
                return 2
        else:
            threads = 1
    if threads < 1:
        print("actuopt: --threads must be >= 1", file=sys.stderr)
        return 2

    os.makedirs(cfg.out_dir, exist_ok=True)
    t0 = time.perf_counter()
    prob = build_problem(cfg)
    try:
        code, status, converged, files, extra = _COMMANDS[args.command](
            cfg, prob, cfg.out_dir, threads
        )
    except BlowUpError as exc:
        print(f"actuopt {args.command}: forward solve blew up "
              f"(step {exc.step}, t = {exc.time:g})", file=sys.stderr)
        code, status, converged, files = 1, "blow_up", False, []
        extra = {"blow_up_step": exc.step, "blow_up_time": exc.time}
    summary = {
        "command": args.command,
        "model": cfg.model,
        "status": status,
        "converged": converged,
        "wall_time_s": time.perf_counter() - t0,
        "threads": threads,
        "j_history": None,
        "final_residuals": None,
        **extra,
        "files": files + ["summary.json"],
        "config_text": canonical_text(cfg),
    }
    _write_text(os.path.join(cfg.out_dir, "summary.json"), _json_text(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
