"""Run one benchmark workload in this process.

    python3 perfbench/child.py WORKLOAD CONFIG OUT_DIR MODE

MODE is `run` (the workload, untraced), `trace` (the workload with every
layer traced, spans written to OUT_DIR/spans.npz) or `probe` (stop at the
start of the first forward sweep, to sample set-up time alone). The runner
starts this script with `src` on PYTHONPATH and one BLAS thread, and reads
OUT_DIR/child.json, which holds `setup_end`: the CLOCK_MONOTONIC time at
which the first step factorisation returned, the moment the first forward
sweep starts stepping.
"""
import json
import os
import sys
import time


def beam_grid(config, out_dir):
    """grid_search_r through the library, because `actuopt gridsearch`
    ignores the [optimizer] section the workload sets."""
    from actuopt.config import build_problem, load_config
    from actuopt.optimizer import grid_search_r

    cfg = load_config(config)
    prob = build_problem(cfg)
    best, table = grid_search_r(
        prob["disc"], prob["cost"], prob["x0"], prob["pspec"], cfg.n_grid,
        prob["grid"], config=cfg.opt, threads=1,
    )
    rows = [[float(r), float(j), bool(ok)] for r, j, ok in table]
    with open(os.path.join(out_dir, "landscape.json"), "w") as fh:
        json.dump({"best_r": float(best[0]), "table": rows}, fh)
    return 0


def cli_command(command):
    def run(config, out_dir):
        from actuopt.cli import main

        return main([command, "--config", config, "--out", out_dir,
                     "--threads", "1"])
    return run


WORKLOADS = {
    "beam-grid16": beam_grid,
    "wave-optimize": cli_command("optimize"),
    "wave-gradcheck": cli_command("gradcheck"),
}


def main():
    workload, config, out_dir, mode = sys.argv[1:5]
    from actuopt.core_system import Discretization

    record = {}
    result_path = os.path.join(out_dir, "child.json")

    def write_record():
        with open(result_path, "w") as fh:
            json.dump(record, fh)

    tracer = None
    if mode == "trace":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    step_factors = Discretization.step_factors

    def first_step_factors(self, *args, **kwargs):
        out = step_factors(self, *args, **kwargs)
        record["setup_end"] = time.monotonic()
        Discretization.step_factors = step_factors
        if mode == "probe":
            write_record()
            sys.stdout.flush()
            os._exit(0)
        return out

    Discretization.step_factors = first_step_factors
    record["exit_code"] = WORKLOADS[workload](config, out_dir)
    if tracer is not None:
        tracer.save(os.path.join(out_dir, "spans.npz"))
        from actuopt.config import load_config

        record["counters"] = tracer.counters
        record["n_steps"] = load_config(config).n_steps
    write_record()
    return 0


if __name__ == "__main__":
    sys.exit(main())
