import re
from pathlib import Path

import numpy as np
import pytest

import actuopt as ao
from actuopt.config import (
    _SCHEMA,
    ConfigError,
    build_problem,
    canonical_text,
    control_series,
    load_config,
    parse_config_text,
)
from actuopt.models import MODELS

MINIMAL_BEAM = "[run]\nmodel = beam\n"
MINIMAL_WAVE = "[run]\nmodel = wave\n"


def test_minimal_beam_defaults():
    cfg = parse_config_text(MINIMAL_BEAM)
    assert cfg.model == "beam"
    assert cfg.t_final == 2.0 and cfg.n_steps == 400
    assert isinstance(cfg.params, ao.BeamParams) and cfg.params.n_cells == 64
    assert cfg.act_width == 0.05
    assert cfg.r_init == "center"
    assert cfg.q1 == "uniform" and cfg.q2 == "uniform"
    assert cfg.opt.tol_grad == 2e-6
    assert cfg.n_grid == 64


def test_minimal_wave_defaults():
    cfg = parse_config_text(MINIMAL_WAVE)
    assert isinstance(cfg.params, ao.WaveParams) and cfg.params.nx == 24
    assert cfg.act_width == 0.1
    assert cfg.params.nonlinearity == "sine_gordon"


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


# canonical_text of the minimal configs: every default, in canonical order
CANONICAL_BEAM = """\
[run]
model = beam
seed = 0

[time]
t_final = 2.0
n_steps = 400

[beam]
ei = 1.0
rho_a = 1.0
length = 1.0
k = 1.0
alpha = 1.0
mu = 0.1
c_d = 0.01
n_cells = 64

[actuator]
width = 0.05
r_init = center

[cost]
q1 = uniform
q2 = uniform
r_weight = 1.0

[init]
kind = sine
amplitude = 1.0
mode = 1
center = 0.5
sigma = 0.1

[control]
kind = zero
amplitude = 1.0
freq = 1.0

[admissible]
r_ad = 10.0
r_box = auto

[optimizer]
max_iters = 500
tol_grad = 2e-06

[gradcheck]
n_directions = 10
corrupt = false

[gridsearch]
n_grid = 64

[output]
probe = center
"""

CANONICAL_WAVE = """\
[run]
model = wave
seed = 0

[time]
t_final = 2.0
n_steps = 400

[wave]
lx = 1.0
ly = 1.0
nx = 24
ny = 24
gamma1_edges =\x20
nonlinearity = sine_gordon
kg_exponent = 2

[actuator]
width = 0.1
r_init = center

[cost]
q1 = uniform
q2 = uniform
r_weight = 1.0

[init]
kind = sine
amplitude = 1.0
mode = 1
center = 0.5,0.5
sigma = 0.1

[control]
kind = zero
amplitude = 1.0
freq = 1.0

[admissible]
r_ad = 10.0
r_box = auto

[optimizer]
max_iters = 500
tol_grad = 2e-06

[gradcheck]
n_directions = 10
corrupt = false

[gridsearch]
n_grid = 64

[output]
probe = center
"""


@pytest.mark.parametrize("text,golden", [
    (MINIMAL_BEAM, CANONICAL_BEAM), (MINIMAL_WAVE, CANONICAL_WAVE),
], ids=["beam", "wave"])
def test_canonical_text_of_minimal_configs(text, golden):
    assert canonical_text(parse_config_text(text)) == golden


# a valid value other than the default for every key; a dict holds one
# value per model where the value depends on the design dimension
NON_DEFAULT = {
    ("run", "model"): {"beam": "wave", "wave": "beam"},
    ("run", "seed"): "3",
    ("time", "t_final"): "1.5",
    ("time", "n_steps"): "200",
    ("beam", "ei"): "2.0",
    ("beam", "rho_a"): "2.0",
    ("beam", "length"): "2.0",
    ("beam", "k"): "0.5",
    ("beam", "alpha"): "0.0",
    ("beam", "mu"): "0.2",
    ("beam", "c_d"): "0.02",
    ("beam", "n_cells"): "32",
    ("wave", "lx"): "2.0",
    ("wave", "ly"): "2.0",
    ("wave", "nx"): "12",
    ("wave", "ny"): "12",
    ("wave", "gamma1_edges"): "left, top",
    ("wave", "nonlinearity"): "klein_gordon",
    ("wave", "kg_exponent"): "3",
    ("actuator", "width"): "0.08",
    ("actuator", "r_init"): {"beam": "0.3", "wave": "0.3, 0.7"},
    ("cost", "q1"): {"beam": "gaussian(0.5, 0.2)", "wave": "gaussian(0.5, 0.5, 0.2)"},
    ("cost", "q2"): "zero",
    ("cost", "r_weight"): "2.0",
    ("init", "kind"): "gaussian",
    ("init", "amplitude"): "2.0",
    ("init", "mode"): "2",
    ("init", "center"): {"beam": "0.3", "wave": "0.3, 0.6"},
    ("init", "sigma"): "0.2",
    ("control", "kind"): "sine",
    ("control", "amplitude"): "2.0",
    ("control", "freq"): "1.5",
    ("admissible", "r_ad"): "5.0",
    ("admissible", "r_box"): {"beam": "0.2, 0.8", "wave": "0.2, 0.8, 0.3, 0.7"},
    ("optimizer", "max_iters"): "50",
    ("optimizer", "tol_grad"): "1e-5",
    ("gradcheck", "n_directions"): "4",
    ("gradcheck", "corrupt"): "true",
    ("gridsearch", "n_grid"): "16",
    ("output", "probe"): {"beam": "0.25, 0.75", "wave": "0.25, 0.25; 0.75, 0.5"},
}

# every key of every section a config of the model may hold
MODEL_KEYS = [
    (model, section, key)
    for model in MODELS for section, keys in _SCHEMA.items()
    if section == model or section not in MODELS for key in keys
]


@pytest.mark.parametrize("model,section,key", MODEL_KEYS,
                         ids=["-".join(k) for k in MODEL_KEYS])
def test_every_key_acts(model, section, key):
    value = NON_DEFAULT[(section, key)]
    if isinstance(value, dict):
        value = value[model]
    minimal = f"[run]\nmodel = {model}\n"
    if (section, key) == ("run", "model"):
        text = f"[run]\nmodel = {value}\n"
    else:
        text = minimal + f"[{section}]\n{key} = {value}\n"
    cfg = parse_config_text(text)
    assert cfg != parse_config_text(minimal)
    assert parse_config_text(canonical_text(cfg)) == cfg


def _readme_config_block():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Configuration"):]
    start = section.index("```ini\n") + len("```ini\n")
    return section[start:section.index("```", start)]


def test_readme_config_block_is_the_schema_and_its_defaults():
    block = _readme_config_block()
    sections, keys, current = set(), set(), None
    for line in block.splitlines():
        body = line.split("#", 1)[0].strip()
        if body.startswith("["):
            current = body[1:-1]
            sections.add(current)
        elif body:
            keys.add((current, body.partition("=")[0].strip()))
    assert sections == set(_SCHEMA)
    assert keys == {(s, k) for s, ks in _SCHEMA.items() for k in ks}
    beam_only = "".join(chunk for chunk in re.split(r"(?m)^(?=\[)", block)
                        if not chunk.startswith("[wave]"))
    assert parse_config_text(beam_only) == parse_config_text(MINIMAL_BEAM)


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
     ":4: bad value for 'max_iters': max_iters must be >= 1"),
    (MINIMAL_BEAM + "[gridsearch]\nn_grid = 4\n",
     ":4: bad value for 'n_grid': expected an integer >= 8, got '4'"),
    (MINIMAL_BEAM + "[cost]\nq1 = gaussian(0.5, 0)\n", "width must be positive"),
    (MINIMAL_BEAM + "[cost]\nq2 = gaussian(0.5, -0.1)\n",
     "width must be positive"),
    (MINIMAL_BEAM + "[actuator]\nwidth = 0.6\n", "r_box component 1 empty"),
    (MINIMAL_BEAM + "[actuator]\nwidth = inf\n", ":4: bad value"),
    (MINIMAL_BEAM + "[init]\namplitude = nan\n", ":4: bad value"),
    (MINIMAL_BEAM + "[control]\nfreq = nan\n", ":4: bad value"),
    (MINIMAL_WAVE + "[actuator]\nr_init = 0.02, 0.5\n",
     "r_init component 1 lets the actuator support leave the domain"),
    (MINIMAL_BEAM + "[beam]\nn_cells = 12\n[output]\nprobe = 0.5, 7.0, -3\n",
     "[output] probe point 2 component 1 lies outside the domain"),
    (MINIMAL_WAVE + "[output]\nprobe = 0.5, 0.5; 0.5, 1.5\n",
     "[output] probe point 2 component 2 lies outside the domain"),
    (MINIMAL_BEAM + "[init]\nkind = gaussian\ncenter = 5.0\n",
     "[init] center component 1 lies outside the domain"),
    ("[run]\nmodel = beam\nseed = -1\n", ":3: bad value for 'seed'"),
    # a setting that was removed is an unknown key at its line
    (MINIMAL_BEAM + "[output]\nout_dir = runs/elsewhere\n",
     ":4: unknown key 'out_dir' in section [output] (known: probe)"),
    (MINIMAL_BEAM + "[optimizer]\narmijo_c = 1e-3\n",
     ":4: unknown key 'armijo_c' in section [optimizer] (known: max_iters, tol_grad)"),
    (MINIMAL_BEAM + "[optimizer]\nmax_iters = 50\nbacktrack = 0.25\n",
     ":5: unknown key 'backtrack' in section [optimizer] (known: max_iters, tol_grad)"),
    # a rule across the keys of a section names the section
    (MINIMAL_WAVE + "[wave]\nkg_exponent = 1\nnonlinearity = klein_gordon\n",
     "<config>: [wave] section: klein_gordon exponent must be >= 2, got 1"),
], ids=["section", "key", "dup", "nosection", "noeq", "badvalue",
        "nomodel", "badmodel", "wavesec", "beamsec", "optimizer", "ngrid",
        "zerowidth", "negwidth", "widebeam", "infwidth", "nanamplitude",
        "nanfreq", "waverinit", "beamprobe", "waveprobe", "initcenter",
        "negseed", "outdir", "armijo", "backtrack", "kgexponent"])
def test_parse_errors_carry_location(text, fragment):
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(text)
    assert fragment in str(exc_info.value)


# (section, key, value) out of the key's range; [wave] keys go in a wave
# config, the others in a beam config
OUT_OF_RANGE = [
    ("time", "t_final", "0"),
    ("time", "n_steps", "1"),
    ("beam", "n_cells", "4"),
    ("beam", "alpha", "-1"),
    ("wave", "nx", "4"),
    ("actuator", "width", "-0.1"),
    ("cost", "r_weight", "0"),
    ("init", "kind", "square"),
    ("init", "mode", "0"),
    ("init", "sigma", "0"),
    ("control", "kind", "chirp"),
    ("admissible", "r_ad", "-1"),
    ("optimizer", "max_iters", "0"),
    ("optimizer", "tol_grad", "0"),
    ("gradcheck", "n_directions", "0"),
    ("gridsearch", "n_grid", "4"),
]


@pytest.mark.parametrize("section,key,value", OUT_OF_RANGE,
                         ids=["-".join(case[:2]) for case in OUT_OF_RANGE])
def test_out_of_range_value_names_its_line(section, key, value):
    # the value sits on line 5, after a comment line in its section
    model = "wave" if section == "wave" else "beam"
    text = f"[run]\nmodel = {model}\n[{section}]\n# out of range\n{key} = {value}\n"
    with pytest.raises(ConfigError) as exc_info:
        parse_config_text(text, source="x.cfg")
    assert str(exc_info.value).startswith(f"x.cfg:5: bad value for {key!r}: ")


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


def test_load_config_skips_a_utf8_bom(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + MINIMAL_BEAM.encode("utf-8"))
    assert load_config(str(path)) == parse_config_text(MINIMAL_BEAM)


def test_load_config_rejects_non_utf8_file(tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"\xff\xfe" + MINIMAL_BEAM.encode("utf-8"))
    message = f"cannot read config file {path}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(str(path))


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
    assert box[0, 0] >= disc.act_width
    assert tuple(prob["probe_pts"]) == ((0.5,),)


def test_build_problem_wave_gaussian_cost():
    text = MINIMAL_WAVE + "[cost]\nq1 = gaussian(0.5, 0.5, 0.25)\nq2 = zero\n"
    prob = build_problem(parse_config_text(text))
    cost = prob["cost"]
    nn = prob["disc"].n_nodes
    assert cost.q1.shape == (nn,) and cost.q2.shape == (nn,)
    assert np.all(cost.q2 == 0.0)
    assert cost.q1.max() <= 1.0 + 1e-12 and cost.q1.min() >= 0.0
    xc = prob["disc"].xcoord
    yc = prob["disc"].ycoord
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
