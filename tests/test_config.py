import numpy as np
import pytest

import actuopt as ao
from actuopt.config import (
    ConfigError,
    build_problem,
    canonical_text,
    control_series,
    load_config,
    parse_config_text,
)

MINIMAL_BEAM = "[run]\nmodel = beam\n"
MINIMAL_WAVE = "[run]\nmodel = wave\n"


def test_minimal_beam_defaults():
    cfg = parse_config_text(MINIMAL_BEAM)
    assert cfg.model == "beam"
    assert cfg.t_final == 2.0 and cfg.n_steps == 400
    assert cfg.beam.n_cells == 64 and cfg.wave is None
    assert cfg.act_width == 0.05
    assert cfg.r_init == "center"
    assert cfg.q1 == "uniform" and cfg.q2 == "uniform"
    assert cfg.opt.tol_grad == 2e-6
    assert cfg.n_grid == 64


def test_minimal_wave_defaults():
    cfg = parse_config_text(MINIMAL_WAVE)
    assert cfg.wave.nx == 24 and cfg.beam is None
    assert cfg.act_width == 0.1
    assert cfg.wave.nonlinearity == "sine_gordon"


def test_comments_and_blank_lines_ignored():
    text = "# leading comment\n\n[run]\nmodel = beam  # trailing\n\n# done\n"
    assert parse_config_text(text).model == "beam"


def test_canonical_text_round_trips():
    text = """
[run]
model = wave
seed = 3
[time]
t_final = 0.5
n_steps = 80
[wave]
nx = 12
ny = 10
gamma1_edges = left, top
nonlinearity = klein_gordon
kg_exponent = 3
[cost]
q1 = gaussian(0.4, 0.6, 0.2)
r_weight = 2.0
[actuator]
width = 0.15
r_init = 0.3, 0.7
[output]
probe = 0.25, 0.25; 0.75, 0.5
"""
    cfg = parse_config_text(text)
    canon = canonical_text(cfg)
    again = parse_config_text(canon, source="<canonical>")
    assert again == cfg
    # canonicalizing a canonical text is the identity
    assert canonical_text(again) == canon


@pytest.mark.parametrize("text,fragment", [
    ("[orbit]\nx = 1\n", ":1: unknown section"),
    ("[run]\nmodel = beam\nplanet = mars\n", ":3: unknown key 'planet'"),
    ("[run]\nmodel = beam\nmodel = wave\n", ":3: duplicate key"),
    ("model = beam\n", ":1: key outside of any [section]"),
    ("[run]\nmodel beam\n", ":2: expected 'key = value'"),
    ("[run]\nmodel = beam\n[time]\nn_steps = soon\n", ":4: bad value"),
    ("[time]\nt_final = 1.0\n", "missing required key 'model'"),
    ("[run]\nmodel = train\n", "model must be 'beam' or 'wave'"),
    ("[run]\nmodel = beam\n[wave]\nnx = 12\n", "section [wave] is invalid"),
    ("[run]\nmodel = wave\n[beam]\nei = 2.0\n", "section [beam] is invalid"),
    (MINIMAL_BEAM + "[optimizer]\nmax_iters = 0\n",
     "[optimizer] section: max_iters must be >= 1"),
    (MINIMAL_BEAM + "[gridsearch]\nn_grid = 4\n", "n_grid must be >= 8"),
    (MINIMAL_BEAM + "[cost]\nq1 = gaussian(0.5, 0)\n", "width must be positive"),
    (MINIMAL_BEAM + "[cost]\nq2 = gaussian(0.5, -0.1)\n",
     "width must be positive"),
    (MINIMAL_BEAM + "[actuator]\nwidth = 0.6\n", "r_box component 1 empty"),
    (MINIMAL_BEAM + "[actuator]\nwidth = inf\n", ":4: bad value"),
    (MINIMAL_BEAM + "[init]\namplitude = nan\n", ":4: bad value"),
    (MINIMAL_BEAM + "[control]\nfreq = nan\n", ":4: bad value"),
    (MINIMAL_WAVE + "[actuator]\nr_init = 0.02, 0.5\n",
     "r_init component 1 lets the actuator support leave the domain"),
], ids=["section", "key", "dup", "nosection", "noeq", "badvalue",
        "nomodel", "badmodel", "wavesec", "beamsec", "optimizer", "ngrid",
        "zerowidth", "negwidth", "widebeam", "infwidth", "nanamplitude",
        "nanfreq", "waverinit"])
def test_parse_errors_carry_location(text, fragment):
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(text)
    assert fragment in str(exc_info.value)


def test_r_box_must_keep_support_inside_domain():
    text = MINIMAL_BEAM + "[admissible]\nr_box = 0.01, 0.99\n"
    with pytest.raises(ConfigError, match="leave the domain"):
        parse_config_text(text)
    ok = parse_config_text(MINIMAL_BEAM + "[admissible]\nr_box = 0.2, 0.8\n")
    assert ok.r_box == (0.2, 0.8)


def test_bad_cost_preset_rejected():
    with pytest.raises(ConfigError, match="q1"):
        parse_config_text(MINIMAL_BEAM + "[cost]\nq1 = rainbow\n")
    with pytest.raises(ConfigError):
        # wave gaussians need three numbers (center pair + width)
        parse_config_text(MINIMAL_WAVE + "[cost]\nq2 = gaussian(0.5, 0.1)\n")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config file"):
        load_config(str(tmp_path / "nope.cfg"))


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL_BEAM, encoding="utf-8")
    assert load_config(str(path)).model == "beam"


def test_control_series_kinds():
    cfg = parse_config_text(MINIMAL_BEAM)
    times = np.linspace(0.0, 2.0, 11)
    assert np.all(control_series(cfg, times) == 0.0)
    cfg2 = parse_config_text(
        MINIMAL_BEAM + "[control]\nkind = sine\namplitude = 2.0\nfreq = 1.5\n"
    )
    np.testing.assert_allclose(
        control_series(cfg2, times), 2.0 * np.sin(2.0 * np.pi * 1.5 * times)
    )


def test_build_problem_beam_defaults():
    prob = build_problem(parse_config_text(MINIMAL_BEAM))
    disc, grid = prob["disc"], prob["grid"]
    assert disc.model == "beam"
    assert grid.n_steps == 400
    m = disc.n_space
    params = disc.params
    np.testing.assert_allclose(
        prob["x0"][:m], np.sin(np.pi * params.nodes / params.length)
    )
    assert np.all(prob["x0"][m:] == 0.0)
    assert np.all(prob["u0"] == 0.0)
    # auto box keeps the bump plus one cell inside the domain; center init
    box = prob["pspec"].r_box
    np.testing.assert_allclose(prob["r_init"], box.mean(axis=1))
    assert box[0, 0] >= disc.meta["act_width"]
    assert tuple(prob["probe_pts"]) == ((0.5,),)


def test_build_problem_wave_gaussian_cost():
    text = MINIMAL_WAVE + "[cost]\nq1 = gaussian(0.5, 0.5, 0.25)\nq2 = zero\n"
    prob = build_problem(parse_config_text(text))
    cost = prob["cost"]
    nn = prob["disc"].meta["n_nodes"]
    assert cost.q1.shape == (nn,) and cost.q2.shape == (nn,)
    assert np.all(cost.q2 == 0.0)
    assert cost.q1.max() <= 1.0 + 1e-12 and cost.q1.min() >= 0.0
    xc = prob["disc"].meta["xcoord"]
    yc = prob["disc"].meta["ycoord"]
    k_center = int(np.argmin((xc - 0.5) ** 2 + (yc - 0.5) ** 2))
    assert cost.q1[k_center] == cost.q1.max()


def test_build_problem_zero_init_gives_zero_cost_state():
    text = MINIMAL_BEAM + "[init]\nkind = zero\n"
    prob = build_problem(parse_config_text(text))
    assert np.all(prob["x0"] == 0.0)


def test_build_problem_gaussian_init_and_custom_r_init():
    text = (MINIMAL_BEAM
            + "[init]\nkind = gaussian\ncenter = 0.3\nsigma = 0.05\namplitude = 2.0\n"
            + "[actuator]\nr_init = 0.25\n")
    prob = build_problem(parse_config_text(text))
    disc = prob["disc"]
    m = disc.n_space
    nodes = disc.params.nodes
    k_peak = int(np.argmax(prob["x0"][:m]))
    assert abs(nodes[k_peak] - 0.3) <= disc.params.dx
    np.testing.assert_allclose(prob["r_init"], [0.25])


def test_build_problem_wave_mixed_edges_probe():
    text = (MINIMAL_WAVE.replace("model = wave", "model = wave")
            + "[wave]\nnx = 12\nny = 12\ngamma1_edges = left\n"
            + "[output]\nprobe = 0.1, 0.5; 0.6, 0.6\n")
    prob = build_problem(parse_config_text(text))
    assert tuple(prob["probe_pts"]) == ((0.1, 0.5), (0.6, 0.6))
    assert prob["disc"].params.gamma1_edges == ("left",)
