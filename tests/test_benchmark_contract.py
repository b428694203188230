"""Every per-layer span metric in BENCHMARK.json must name something the
perfbench tracer wraps, so a rename in the package cannot leave a metric
without a source."""
import importlib
import inspect
import json
import os
import re

from actuopt.core_system import Discretization
from conftest import make_beam, make_wave

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")
TRACED = ("config", "beam_model", "wave_model", "core_system", "adjoint_grad",
          "optimizer", "cli")
SPAN_METRIC = re.compile(
    rf"^({'|'.join(TRACED)})\.(\w+)\.(calls|self_s|max_s|step_us)$")


def _sources(module):
    """Span names the tracer records under `module`."""
    mod = importlib.import_module(f"actuopt.{module}")
    names = {attr for attr, fn in vars(mod).items()
             if inspect.isfunction(fn) and fn.__module__ == mod.__name__
             and not attr.startswith("_")}
    if module == "core_system":
        names |= {attr for attr, fn in vars(Discretization).items()
                  if inspect.isfunction(fn) and not attr.startswith("_")}
    if module in ("beam_model", "wave_model"):
        names |= {"fnl", "fnl_diag"}
    return names


def test_per_layer_span_metrics_have_a_source():
    with open(BENCHMARK, encoding="utf-8") as fh:
        metrics = [m["name"] for m in json.load(fh)["per_layer"]]
    spans = [SPAN_METRIC.match(name) for name in metrics]
    spans = [m for m in spans if m is not None]
    assert len(spans) >= 20
    missing = [m.group(0) for m in spans if m.group(2) not in _sources(m.group(1))]
    assert missing == []


def test_step_factors_result_has_what_the_tracer_reads():
    # the tracer unpacks step_factors' result as two sparse pieces, here the
    # m x m factor of the step (the beam's SuperLU, the wave's eigen-factor)
    # and its coupling block, and records lu.L.nnz + lu.U.nnz and the
    # block's nnz
    for maker in (make_beam, make_wave):
        _, disc, grid, _, _ = maker()
        lu, coupling = disc.step_factors(grid.dt)
        assert lu.shape == (disc.n_space, disc.n_space)
        assert int(lu.L.nnz + lu.U.nnz) > 0
        assert int(coupling.nnz) > 0
