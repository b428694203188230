"""Configuration-driven command-line front end.

Subcommands: simulate, gradcheck, optimize, gridsearch, oracle-compare.
Outputs are CSV time series / landscapes plus a summary.json per run.
Exit codes: 0 success, 1 contract failure (tolerance violation, blow-up,
step failure, non-convergence), 2 configuration or usage error, or an
output file that cannot be written.

All files are written atomically (temp file in the target directory, then
rename; a failed write removes its temp file). CSV numbers use 17 significant digits so 64-bit floats round-trip
exactly; line endings are LF.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time

import numpy as np

from .adjoint_grad import FD_EPS, adjoint_compare, duality_check, gradient_fd_check
from .config import (
    ConfigError,
    build_problem,
    canonical_text,
    control_series,
    load_config,
)
from .core_system import (BlowUpError, StepSolverError, TimeGrid, energy_series,
                          solve_forward, support_leaves)
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
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _csv(header, rows, trailer=None):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    if trailer is not None:
        lines.append(trailer)
    return "\n".join(lines) + "\n"


def _json_text(obj):
    return json.dumps(obj, indent=2) + "\n"


def _finite_or_none(x):
    x = float(x)
    return x if np.isfinite(x) else None


# Each command takes (cfg, prob, threads) and returns (status, message,
# files, extra): its stderr line or None, each output file's name and text in
# write order, and the summary keys it fills. main times it with
# build_problem, prints the message, writes the files and summary.json (the
# common keys, then extra) and exits by _EXIT. A BlowUpError that leaves a
# command becomes a blow_up summary, a StepSolverError a step_failed one.


def cmd_simulate(cfg, prob, threads):
    """integrate the forward model and write a trajectory CSV"""
    disc, grid = prob["disc"], prob["grid"]
    status, message, trailer = "ok", None, None
    try:
        traj = solve_forward(disc, prob["x0"], prob["u0"], prob["r_init"], grid)
        times = grid.times
    except BlowUpError as exc:
        traj = exc.partial
        times = grid.times[: traj.shape[0]]
        trailer = f"# truncated at step {exc.step}, t = {_fmt(exc.time)}"
        status, message = "blow_up", str(exc)

    energy = energy_series(disc, traj)
    pts = prob["probe_pts"]
    names = ["w_at_" + "_".join("%g" % c for c in pt) for pt in pts]
    cols = disc.probe_columns(pts, traj)
    rows = list(zip(times, energy, *cols))
    files = {"trajectory.csv": _csv(["t", "energy"] + names, rows, trailer)}
    return status, message, files, {"n_steps_completed": int(traj.shape[0] - 1)}


def cmd_gradcheck(cfg, prob, threads):
    """verify adjoint gradients against duality and finite differences"""
    disc, grid, cost = prob["disc"], prob["grid"], prob["cost"]
    r, u = prob["r_init"], prob["u0"]
    # the design differences move each component of r by up to max(FD_EPS);
    # the actuator support must stay in the domain at the extreme points
    eps, width, sides = max(FD_EPS), disc.act_width, disc.domain(disc.params)
    for point in (r - eps, r + eps):
        c = support_leaves(point, width, sides)
        if c is not None:
            return "config_error", (
                f"[actuator] r_init component {c + 1} must lie at least "
                f"{eps:g} inside [{width:g}, {sides[c] - width:g}] for the "
                "finite differences"), {}, {}
    if not np.any(u):
        # a zero control would make J independent of r; exercise the design
        # gradient with a deterministic unit sine instead
        u = np.sin(2.0 * np.pi * grid.times / grid.t_final)

    x_traj = solve_forward(disc, prob["x0"], u, r, grid)
    # 5 duality pairs, each drawn from the seed (u~, then x_hat) into the
    # same two buffers and checked alone. x_hat is freed before the
    # finite-difference check, which writes its multipliers over x_traj,
    # so the command holds at most two trajectory-sized arrays
    rng = np.random.default_rng(cfg.seed)
    u_tilde, x_hat = np.empty(grid.n_steps + 1), np.empty(x_traj.shape)
    defects = []
    for _ in range(5):
        rng.standard_normal(out=u_tilde)
        rng.standard_normal(out=x_hat)
        defects.append(duality_check(disc, x_traj, r, u_tilde, x_hat, grid))
    del x_hat
    # np.max, unlike max, keeps a NaN defect, which then fails the check
    duality_max = float(np.max(defects))
    fd = gradient_fd_check(
        disc, cost, x_traj, u, r, grid, n_directions=cfg.n_directions,
        seed=cfg.seed, corrupt=cfg.corrupt,
    )

    failed = []
    if not duality_max <= DUALITY_TOL:
        failed.append("duality")
    if not fd["fd_u_rel"] <= FD_TOL:
        failed.append("fd_u")
    if not fd["fd_r_rel"] <= FD_TOL:
        failed.append("fd_r")

    report = {
        "duality_rel": _finite_or_none(duality_max),
        "fd_u_rel": _finite_or_none(fd["fd_u_rel"]),
        "fd_r_rel": _finite_or_none(fd["fd_r_rel"]),
        "j": _finite_or_none(fd["j"]),
        "tolerances": {"duality": DUALITY_TOL, "fd": FD_TOL},
        "pass": not failed,
        "failed_checks": failed,
    }
    message = f"failed checks: {', '.join(failed)}" if failed else None
    return ("check_failed" if failed else "ok", message,
            {"gradcheck.json": _json_text(report)}, {})


def cmd_optimize(cfg, prob, threads):
    """run the projected-gradient solver for (u, r)"""
    run = optimize(
        prob["disc"], prob["cost"], prob["x0"], prob["u0"], prob["r_init"],
        prob["pspec"], cfg.opt, prob["grid"],
    )
    r_dim = run.r.size
    hist_cols = (["iter", "j", "res_u", "res_r"]
                 + [f"r{c + 1}" for c in range(r_dim)]
                 + ["alpha_u", "alpha_r", "backtracks", "u_norm"])
    hist_rows = [[row[c] for c in hist_cols] for row in run.history]
    r_report = {
        "r": [float(v) for v in run.r],
        "j_final": run.j_final,
        "converged": run.converged,
        "status": run.status,
        "n_iters": run.n_iters,
    }
    files = {
        "optim_history.csv": _csv(hist_cols, hist_rows),
        "optimal_u.csv": _csv(["t", "u"], list(zip(prob["grid"].times, run.u))),
        "optimal_r.json": _json_text(r_report),
    }
    message = None if run.converged else f"did not converge (status: {run.status})"
    last = run.history[-1]
    return run.status, message, files, {
        "final_residuals": {"res_u": last["res_u"], "res_r": last["res_r"]},
    }


def cmd_gridsearch(cfg, prob, threads):
    """sweep actuator positions with per-point control solves"""
    r_dim = prob["r_init"].size
    try:
        best, table = grid_search_r(
            prob["disc"], prob["cost"], prob["x0"], prob["pspec"],
            n_grid=cfg.n_grid, grid=prob["grid"], config=cfg.opt,
            threads=threads,
        )
    except RuntimeError as exc:
        return "failed", str(exc), {}, {}

    header = [f"r{c + 1}" for c in range(r_dim)] + ["j", "converged"]
    best_j = next(row[r_dim] for row in table if row[:r_dim] == tuple(best))
    return "ok", None, {"landscape.csv": _csv(header, table)}, {
        "best_r": [float(v) for v in best],
        "best_j": best_j,
    }


def cmd_oracle_compare(cfg, prob, threads):
    """compare the discrete adjoint against the continuous-adjoint oracle"""
    disc, cost = prob["disc"], prob["cost"]
    # refine the time grid: the oracle and the discrete adjoint only have to
    # agree up to time-discretization error
    grid2 = TimeGrid(cfg.t_final, 2 * cfg.n_steps)
    u2 = control_series(cfg, grid2.times)
    x_traj = solve_forward(disc, prob["x0"], u2, prob["r_init"], grid2)
    rel = adjoint_compare(disc, cost, x_traj, grid2)
    greens = disc.greens_check(cfg.params)
    ok = bool(rel <= ORACLE_TOL) and (greens is None or greens["pass"])

    report = {
        "adjoint_rel_linf": _finite_or_none(rel),
        "tol": ORACLE_TOL,
        "n_steps_used": grid2.n_steps,
        "greens": greens,
        "pass": ok,
    }
    message = None if ok else f"relative error {rel:.3e} (tolerance {ORACLE_TOL:g})"
    return ("ok" if ok else "check_failed", message,
            {"oracle_compare.json": _json_text(report)}, {})


_COMMANDS = {
    "simulate": cmd_simulate,
    "gradcheck": cmd_gradcheck,
    "optimize": cmd_optimize,
    "gridsearch": cmd_gridsearch,
    "oracle-compare": cmd_oracle_compare,
}
# exit code of each status; every other status exits 1
_EXIT = {"ok": 0, "converged": 0, "config_error": 2}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="actuopt",
        description="Optimal control and actuator design for semi-linear "
                    "beam and wave models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.__doc__)
        p.add_argument("--config", required=True, help="path to config file")
        p.add_argument("--out", default="runs/out",
                       help="output directory (default: %(default)s)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes for gridsearch (default: 1)")

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

    if args.threads < 1:
        print(f"actuopt: --threads must be >= 1, got {args.threads}", file=sys.stderr)
        return 2

    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        print(f"actuopt: cannot create output directory {args.out}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    prob = build_problem(cfg)
    try:
        status, message, files, extra = _COMMANDS[args.command](
            cfg, prob, args.threads
        )
    except BlowUpError as exc:
        status, files = "blow_up", {}
        message = f"forward solve blew up (step {exc.step}, t = {exc.time:g})"
        extra = {"blow_up_step": exc.step, "blow_up_time": exc.time}
    except StepSolverError as exc:
        status, message, files, extra = "step_failed", str(exc), {}, {}
    if message is not None:
        print(f"actuopt {args.command}: {message}", file=sys.stderr)
    try:
        for name, text in files.items():
            path = os.path.join(args.out, name)
            _write_text(path, text)
        summary = {
            "command": args.command,
            "model": cfg.model,
            "status": status,
            "wall_time_s": time.perf_counter() - t0,
            "threads": args.threads,
            **extra,
            "files": [*files, "summary.json"],
            "config_text": canonical_text(cfg),
        }
        path = os.path.join(args.out, "summary.json")
        _write_text(path, _json_text(summary))
    except OSError as exc:
        print(f"actuopt: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return _EXIT.get(status, 1)


if __name__ == "__main__":
    sys.exit(main())
