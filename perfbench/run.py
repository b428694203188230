"""Time-to-solution benchmark of actuopt.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload execution is a fresh single-threaded Python process
(perfbench/child.py, BLAS threads set to 1, no process pool) started from
this one, one at a time. For each workload the runner writes the config the
seed generates into the run directory under perfbench/runs/, then

1. runs set-up probes: processes that stop when the first forward sweep
   starts, four at first and one before every full run;
2. runs the workload in full until its share of S seconds is spent (at
   least once), checking every run's outputs against workloads.json;
3. with --trace 1, runs the workload once more with every layer traced and
   derives the per-layer metrics from its spans.

Without --workload all workloads run, interleaved round by round, so that
slow host periods hit all of them. The runner prints each metric's median,
quartiles and sample count, and as its last line one JSON object: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1 (one object per workload, keyed by name, without
--workload). It exits 1 when an output check fails and 2 when it cannot run.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
# set-up probes before the first full run; one more precedes every full run
PROBES = 4
# a workload's processes together may take this long before one is killed
CHILD_DEADLINE_S = 165.0

# D4 symmetry of the unit square: images of a point (x, y) with x, y given
# as decimal strings, so that 1 - x is exact in the config text
_FLIP = {"0.3": "0.7", "0.7": "0.3", "0.6": "0.4", "0.4": "0.6"}


def _d4(g, x, y, flip):
    if g & 4:
        x, y = y, x
    if g & 1:
        x = flip(x)
    if g & 2:
        y = flip(y)
    return x, y


def beam_grid16_config(seed):
    return (f"[run]\nmodel = beam\nseed = {seed}\n\n"
            "[optimizer]\nmax_iters = 10\n\n[gridsearch]\nn_grid = 16\n")


def wave_optimize_config(seed):
    x, y = _d4(seed % 8, "0.3", "0.6", _FLIP.__getitem__)
    return f"[run]\nmodel = wave\nseed = {seed}\n\n[actuator]\nr_init = {x}, {y}\n"


def wave_gradcheck_config(seed):
    return f"[run]\nmodel = wave\nseed = {seed}\n"


# --- output checks: each returns (failed operations, problems)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def check_beam_grid16(ref, seed, out_dir, exit_code):
    del seed  # the grid does not depend on it
    land = _read_json(os.path.join(out_dir, "landscape.json"))
    table = land["table"]
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if len(table) != len(ref["r"]):
        return len(ref["r"]), [f"{len(table)} grid rows"]
    stalled = []
    for i, ((r, j, ok), r_ref, j_ref) in enumerate(zip(table, ref["r"], ref["j"])):
        if abs(r - r_ref) > ref["r_abs_tol"]:
            problems.append(f"point {i}: r = {r!r}, expected {r_ref!r}")
        if not ok:
            stalled.append(i)
        elif not abs(j - j_ref) <= ref["j_rel_tol"] * abs(j_ref):
            problems.append(f"point {i}: J = {j!r}, expected {j_ref!r}")
    cell = (ref["r"][-1] - ref["r"][0]) / (len(ref["r"]) - 1)
    if not abs(land["best_r"] - ref["argmin_r"]) <= ref["argmin_tol_cells"] * cell:
        problems.append(f"argmin r = {land['best_r']!r} not within a cell of "
                        f"{ref['argmin_r']}")
    return len(stalled), problems


def check_wave_optimize(ref, seed, out_dir, exit_code):
    opt = _read_json(os.path.join(out_dir, "optimal_r.json"))
    summary = _read_json(os.path.join(out_dir, "summary.json"))
    tol = ref["tol_grad"]
    with open(os.path.join(out_dir, "optim_history.csv")) as fh:
        last = fh.read().splitlines()[-1].split(",")
    u_norm = float(last[-1])
    res = summary["final_residuals"]
    problems = []
    if exit_code != 0 or not opt["converged"]:
        problems.append(f"not converged (status {opt['status']}, exit {exit_code})")
    if not (res["res_u"] <= tol * max(1.0, u_norm) and res["res_r"] <= tol):
        problems.append(f"final residuals {res}")
    if not abs(opt["j_final"] - ref["j"]) <= ref["j_rel_tol"] * ref["j"]:
        problems.append(f"J = {opt['j_final']!r}, expected {ref['j']!r}")
    r_ref = _d4(seed % 8, ref["r"][0], ref["r"][1], lambda v: 1.0 - v)
    if max(abs(a - b) for a, b in zip(opt["r"], r_ref)) > ref["r_abs_tol"]:
        problems.append(f"r = {opt['r']}, expected {list(r_ref)}")
    return int(bool(problems)), problems


def check_wave_gradcheck(ref, seed, out_dir, exit_code):
    del seed
    report = _read_json(os.path.join(out_dir, "gradcheck.json"))
    failed = report["failed_checks"]
    problems = []
    if not report["duality_rel"] <= ref["duality_tol"]:
        problems.append(f"duality_rel {report['duality_rel']:.3e}")
    if not report["fd_u_rel"] <= ref["fd_tol"]:
        problems.append(f"fd_u_rel {report['fd_u_rel']:.3e}")
    if set(failed) - {ref["known_failure"]}:
        problems.append(f"failed checks {failed}")
    if exit_code != (1 if failed else 0):
        problems.append(f"exit code {exit_code} with failed checks {failed}")
    if not abs(report["j"] - ref["j"]) <= ref["j_rel_tol"] * ref["j"]:
        problems.append(f"J = {report['j']!r}, expected {ref['j']!r}")
    return len(failed), problems


# name -> (config for a seed, output check, operations per run)
WORKLOADS = {
    "beam-grid16": (beam_grid16_config, check_beam_grid16, 16),
    "wave-optimize": (wave_optimize_config, check_wave_optimize, 1),
    "wave-gradcheck": (wave_gradcheck_config, check_wave_gradcheck, 3),
}


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "ACTUOPT_THREADS"):
        env[var] = "1"
    return env


def launch(args, log_path, limit_s):
    """Run one process to completion.

    Returns (launch time, wall s, peak RSS MB, exit code). Wall time runs
    from just before the launch to the reaped exit; the process is killed
    if it outlives limit_s.
    """
    with open(log_path, "w") as log:
        t0 = time.monotonic()
        proc = subprocess.Popen(args, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(limit_s, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return t0, wall, usage.ru_maxrss / 1024.0, proc.returncode


class Batch:
    """The runs of one workload at one seed within one invocation."""

    def __init__(self, name, seed, seconds, run_dir, reference):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.dir = run_dir
        self.reference = reference
        make_config, self.check, self.operations = WORKLOADS[name]
        os.makedirs(run_dir)
        self.config = os.path.join(run_dir, "config.cfg")
        with open(self.config, "w") as fh:
            fh.write(make_config(seed))
        self.spent = 0.0
        self.probes = 0
        self.setups = []
        self.runs = []  # dicts: wall_s, setup_s, peak_rss_mb, operations, ...
        self.problems = []
        self.traced = None

    def _child(self, mode, k):
        out = os.path.join(self.dir, f"{mode}{k}")
        os.makedirs(out)
        limit = CHILD_DEADLINE_S - self.spent
        t0, wall, rss, code = launch(
            [sys.executable, CHILD, self.name, self.config, out, mode],
            os.path.join(out, "child.log"), limit)
        self.spent += wall
        try:
            record = _read_json(os.path.join(out, "child.json"))
        except (OSError, ValueError):
            record = None
        if code != 0 or record is None or "setup_end" not in record:
            self.problems.append(f"{mode}{k}: process exited {code} without a "
                                 f"record; see {os.path.relpath(out, ROOT)}")
            return out, None, wall, rss
        self.setups.append(record["setup_end"] - t0)
        return out, record, wall, rss

    def probe(self):
        self._child("probe", self.probes)
        self.probes += 1

    def wants_run(self):
        if not self.runs:
            return True
        walls = [r["wall_s"] for r in self.runs]
        return self.spent + statistics.median(walls) <= self.seconds

    def run(self, mode="run"):
        out, record, wall, rss = self._child(mode, len(self.runs))
        ops = self.operations
        failed, problems = ops, []
        if record is not None:
            try:
                failed, problems = self.check(
                    self.reference, self.seed, out, record["exit_code"])
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable outputs: {exc!r}"]
        if record is None or problems:
            # a run that crashes or fails its check fails all its operations
            failed = ops
            self.problems += [f"{mode}{len(self.runs)}: {p}" for p in problems]
        entry = {"wall_s": wall, "peak_rss_mb": rss, "operations": ops,
                 "failed_operations": failed, "correct": record is not None
                 and not problems, "dir": out, "record": record}
        if mode == "trace":
            self.traced = entry
        else:
            self.runs.append(entry)
        return entry


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(batch):
    return {
        "wall_s": [r["wall_s"] for r in batch.runs],
        "setup_s": batch.setups,
        "peak_rss_mb": [r["peak_rss_mb"] for r in batch.runs],
    }


def layer_values(batch, names):
    """Per-layer metrics of the traced run, by BENCHMARK.json name."""
    from tracing import summarize

    entry = batch.traced
    record = entry["record"]
    stats, root_s = summarize(os.path.join(entry["dir"], "spans.npz"))
    n_steps = record["n_steps"]
    counters = record["counters"]
    values = {}
    for span, s in stats.items():
        values[f"{span}.calls"] = s["calls"]
        values[f"{span}.self_s"] = s["self_s"]
        values[f"{span}.max_s"] = s["max_s"]
        values[f"{span}.step_us"] = (
            1e6 * s["self_s"] / (s["calls"] * n_steps) if s["calls"] else 0.0)
    opt_calls = stats["optimizer.optimize"]["calls"]
    evaluations = stats["adjoint_grad.solve_adjoint"]["calls_in_optimize"]
    iterations = counters["optimize_iterations"]
    tried = evaluations - opt_calls
    wall = entry["wall_s"]
    untraced = statistics.median(r["wall_s"] for r in batch.runs)
    values.update({
        "core_system.step_factors.factorizations": counters["factorizations"],
        "core_system.lu_nnz": counters["lu_nnz"],
        # one 8-byte value and one 4-byte index per stored entry
        "core_system.step_bytes_computed":
            12 * (counters["lu_nnz"] + counters["m_plus_nnz"]),
        # solve_adjoint and duality_check run one transpose sweep each
        "adjoint_grad.transpose_sweeps":
            stats["adjoint_grad.solve_adjoint"]["calls"]
            + stats["adjoint_grad.duality_check"]["calls"],
        "optimizer.iterations": iterations,
        "optimizer.evaluations": evaluations,
        "optimizer.backtracks": tried - iterations,
        "optimizer.stalled": counters["optimize_not_converged"],
        "optimizer.accept_ratio": iterations / tried if tried else 0.0,
        "workload.operations": entry["operations"],
        "workload.failed_operations": entry["failed_operations"],
        "workload.fail_frac": entry["failed_operations"] / entry["operations"],
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / untraced - 1.0,
        "trace.unattributed_s": wall - root_s,
    })
    unknown = [n for n in names if n not in values and n != "trace.other_self_s"]
    if unknown:
        raise KeyError(f"per-layer metrics with no source: {unknown}")
    listed = {n for n in names if n.endswith(".self_s")}
    values["trace.other_self_s"] = sum(
        s["self_s"] for span, s in stats.items() if f"{span}.self_s" not in listed)
    closure = (sum(values[n] for n in listed | {"trace.other_self_s"})
               + values["trace.unattributed_s"])
    if not math.isclose(closure, wall, rel_tol=1e-9, abs_tol=1e-9):
        batch.problems.append(
            f"trace: self times plus unattributed time {closure!r} != wall {wall!r}")
    return values


def fmt_row(name, unit, values):
    q1, med, q3 = quartiles(values)
    return (f"  {name:<14} median {med:12.6g} {unit:<3}  "
            f"q1 {q1:10.6g}  q3 {q3:10.6g}  n={len(values)}")


def report(batch, bench, trace):
    """Print the batch's table; return its result object."""
    ops = sum(r["operations"] for r in batch.runs)
    failed = sum(r["failed_operations"] for r in batch.runs)
    print(f"{batch.name} (seed {batch.seed}, {len(batch.runs)} runs, "
          f"dir {os.path.relpath(batch.dir, ROOT)})")
    series = end_to_end(batch)
    for m in bench["end_to_end"]:
        print(fmt_row(m["name"], m["unit"], series[m["name"]]))
    print(f"  {'fail_frac':<14} {failed}/{ops} = {failed / ops:.4g} "
          "(failed operations / attempted)")
    metrics = {}
    if trace:
        if batch.traced is not None and batch.traced["correct"]:
            names = [m["name"] for m in bench["per_layer"]]
            values = layer_values(batch, names)
            for m in bench["per_layer"]:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
            print("  traced run:")
            for name, v in metrics.items():
                print(f"    {name:<44} {v['value']:14.6g} {v['unit']}")
    else:
        for m in bench["end_to_end"]:
            metrics[m["name"]] = {"value": quartiles(series[m["name"]])[1],
                                  "unit": m["unit"]}
    for p in batch.problems:
        print(f"  CHECK FAILED: {p}")
    children = batch.runs + ([batch.traced] if batch.traced else [])
    bad = sum(not c["correct"] for c in children)
    result = {
        "correct": not batch.problems,
        "attempted": len(children),
        "failed": bad,
        "metrics": metrics,
    }
    with open(os.path.join(batch.dir, "result.json"), "w") as fh:
        json.dump({"result": result, "fail_frac": failed / ops,
                   "series": series,
                   "runs": [{k: v for k, v in c.items() if k != "record"}
                            for c in children],
                   "problems": batch.problems}, fh, indent=1)
    return result


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="run one workload (default: all, interleaved)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "actuopt", "__init__.py")):
        print("perfbench: src/actuopt not found next to perfbench/",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as fh:
        refs = json.load(fh)["workloads"]

    stamp = time.strftime("%Y%m%d-%H%M%S")
    base = os.path.join(HERE, "runs", f"{stamp}-{os.getpid()}")
    selected = [args.workload] if args.workload else names
    batches = [
        Batch(n, args.seed, args.seconds,
              os.path.join(base, f"{n}-seed{args.seed}"), refs[n]["reference"])
        for n in selected
    ]
    # warm the bytecode and file caches: users do not pay compilation per run
    code = launch([sys.executable, "-c", "import actuopt.cli"],
                  os.path.join(base, "warmup.log"), 60.0)[3]
    if code != 0:
        print(f"perfbench: importing actuopt failed; see {base}/warmup.log",
              file=sys.stderr)
        return 2

    for _ in range(PROBES):
        for b in batches:
            b.probe()
    while any(b.wants_run() for b in batches):
        for b in batches:
            if b.wants_run():
                b.probe()
                b.run()
    if args.trace:
        for b in batches:
            b.run("trace")

    results = {b.name: report(b, bench, args.trace) for b in batches}
    if args.workload:
        print(json.dumps(results[args.workload]))
    else:
        print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
