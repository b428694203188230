"""Contract tests run over every registered model, and a guard that keeps
model-name branches out of the model-agnostic layers."""
import ast
import inspect
import os
import pickle
import re

import numpy as np
import pytest

import actuopt
from actuopt.cli import main
from actuopt.config import ConfigError, build_problem, canonical_text, parse_config_text
from actuopt.core_system import Discretization
from actuopt.models import MODELS

NAMES = sorted(MODELS)


def _interface():
    """The names that the Discretization docstring lists under each of its
    model-interface headings."""
    doc = inspect.getdoc(Discretization).splitlines()
    listed = {}
    for heading in ("Class attributes", "Static methods", "Methods"):
        at = doc.index(heading) + 2  # past the heading's underline
        names = []
        for line in doc[at:]:
            if not line.strip():
                break
            entry = re.match(r"(\w+)[(:]", line)
            if entry:
                names.append(entry[1])
        listed[heading] = names
    return listed


INTERFACE = _interface()


def test_interface_docstring_lists_the_model_interface():
    assert {"model", "params_cls", "default_act_width", "r_dim"} <= set(
        INTERFACE["Class attributes"])
    assert {"assemble", "domain", "spacing", "greens_check"} <= set(
        INTERFACE["Static methods"])
    assert {"fnl", "fnl_diag", "b_of_r", "b_jac_of_r", "fstar_h",
            "cost_matrix_fn", "cost_coords", "dof_coords",
            "probe_columns"} <= set(INTERFACE["Methods"])


@pytest.mark.parametrize("name", NAMES)
def test_model_class_defines_the_interface(name):
    cls = MODELS[name]
    assert issubclass(cls, Discretization) and cls.model == name
    own = cls.__mro__[:cls.__mro__.index(Discretization)]
    for heading, names in INTERFACE.items():
        for attr in names:
            assert any(attr in vars(k) for k in own), f"{name} lacks {attr}"
            value = inspect.getattr_static(cls, attr)
            if heading == "Class attributes":
                assert not isinstance(value, (staticmethod, classmethod))
                assert not inspect.isfunction(value), attr
            elif heading == "Static methods":
                assert isinstance(value, staticmethod), attr
            else:
                assert inspect.isfunction(value), attr
    disc = cls.assemble(cls.params_cls(), cls.default_act_width)
    assert type(disc) is cls
    assert disc.params == cls.params_cls()
    assert disc.act_width == cls.default_act_width


def minimal(name):
    return f"[run]\nmodel = {name}\n"


@pytest.mark.parametrize("name", NAMES)
def test_minimal_config_round_trips(name):
    cfg = parse_config_text(minimal(name))
    canon = canonical_text(cfg)
    assert parse_config_text(canon, source="<canonical>") == cfg
    assert canonical_text(parse_config_text(canon)) == canon


@pytest.mark.parametrize("name", NAMES)
def test_build_problem_contract(name):
    cfg = parse_config_text(minimal(name) + "[time]\nt_final = 0.1\nn_steps = 4\n")
    prob = build_problem(cfg)
    disc = prob["disc"]
    assert disc.model == name
    assert disc.r_dim == len(disc.domain(cfg.params))
    assert prob["x0"].shape == (disc.n_dof,)
    box = prob["pspec"].r_box
    r = prob["r_init"]
    assert box.shape == (disc.r_dim, 2)
    assert r.shape == (disc.r_dim,)
    assert np.all((box[:, 0] <= r) & (r <= box[:, 1]))
    mq = disc.cost_matrix(prob["cost"])
    assert mq.shape == (disc.n_dof, disc.n_dof)


@pytest.mark.parametrize("name", NAMES)
def test_simulate_header_has_one_column_per_probe(tmp_path, name):
    model = MODELS[name]
    domain = model.domain(model.params_cls())
    points = [tuple(f * d for d in domain) for f in (0.3, 0.6, 0.7)]
    sep = "," if len(domain) == 1 else ";"
    probe = sep.join(", ".join(repr(c) for c in p) for p in points)
    path = tmp_path / "run.cfg"
    path.write_text(minimal(name) + "[time]\nt_final = 0.1\nn_steps = 4\n"
                    + f"[output]\nprobe = {probe}\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    with open(out / "trajectory.csv", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    assert header[2:] == [
        "w_at_" + "_".join("%g" % c for c in p) for p in points
    ]


@pytest.mark.parametrize("name", NAMES)
def test_discretization_pickles_as_its_recipe(name):
    cfg = parse_config_text(minimal(name) + "[time]\nt_final = 0.2\nn_steps = 20\n"
                            + "[control]\nkind = sine\n")
    prob = build_problem(cfg)
    disc = prob["disc"]
    blob = pickle.dumps(disc)
    assert len(blob) < 1000  # parameters and width, not operators
    again = pickle.loads(blob)
    assert again is not disc and again.model == name
    args = (prob["x0"], prob["u0"], prob["r_init"], prob["grid"])
    a = actuopt.solve_forward(disc, *args)
    b = actuopt.solve_forward(again, *args)
    assert a.tobytes() == b.tobytes()


# the key of each model's first side, and the other components of an
# actuator center and of an r_box, inside the unit sides that follow
FIRST_SIDE = {"beam": ("length", "", ""), "wave": ("lx", ", 0.5", ", 0.25, 0.75")}


def edge_text(name, side, width, r_init=None, r_box=None):
    """A config of model name with first side `side` and actuator width
    `width`, whose r_init (a number) or r_box (a pair) sets the first
    component."""
    key, center_rest, box_rest = FIRST_SIDE[name]
    text = (minimal(name) + "[time]\nt_final = 0.1\nn_steps = 4\n"
            f"[{name}]\n{key} = {side!r}\n[actuator]\nwidth = {width!r}\n")
    if r_init is not None:
        text += f"r_init = {r_init!r}{center_rest}\n"
    if r_box is not None:
        text += f"[admissible]\nr_box = {r_box[0]!r}, {r_box[1]!r}{box_rest}\n"
    return text


# side 0.6 and width 0.06: fl(0.6 - 0.06) = 0.54, but 0.54 + 0.06 rounds
# above 0.6, so the support of a center at 0.54 leaves the domain by an ulp
ULP_EDGE = {"r_init": {"r_init": 0.54}, "r_box": {"r_box": (0.06, 0.54)}}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("case", ULP_EDGE)
def test_ulp_edge_actuator_is_a_config_error(name, case):
    with pytest.raises(ConfigError, match=f"{case} component 1 lets the actuator "
                                          "support leave the domain"):
        parse_config_text(edge_text(name, 0.6, 0.06, **ULP_EDGE[case]))


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("case", ULP_EDGE)
@pytest.mark.parametrize("command", ["simulate", "oracle-compare", "gridsearch"])
def test_ulp_edge_actuator_exits_2_and_writes_nothing(tmp_path, capsys, name, case,
                                                      command):
    path = tmp_path / "run.cfg"
    path.write_text(edge_text(name, 0.6, 0.06, **ULP_EDGE[case]), encoding="utf-8")
    out = tmp_path / "out"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"actuopt: config error: {path}: ") and err.count("\n") == 1
    assert "lets the actuator support leave the domain" in err
    assert not out.exists()


# decimal (side, width) pairs; a center at fl(side - width) or width, or
# one ulp either side of them, is where two forms of the rule could part
EDGE_PAIRS = [(0.6, 0.06), (1.0, 0.1), (0.3, 0.1), (0.7, 0.07), (0.9, 0.3),
              (2.4, 0.12), (1.1, 0.11), (0.35, 0.05)]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("side,width", EDGE_PAIRS)
def test_config_accepts_a_center_exactly_when_b_of_r_does(name, side, width):
    key, _, _ = FIRST_SIDE[name]
    cls = MODELS[name]
    disc = cls.assemble(cls.params_cls(**{key: side}), width)
    rest = [0.5 * length for length in disc.domain(disc.params)[1:]]
    outcomes = set()
    for edge in (side - width, width):
        for c in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 2.0 * side)):
            try:
                parse_config_text(edge_text(name, side, width, r_init=float(c)))
                parsed = True
            except ConfigError:
                parsed = False
            try:
                disc.b_of_r(np.array([c, *rest]))
                built = True
            except ValueError:
                built = False
            assert parsed == built, (edge, c, parsed)
            outcomes.add(parsed)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("width", [0.0, -0.1, float("nan"), float("inf")])
def test_actuator_width_is_checked_at_construction(name, width):
    cls = MODELS[name]
    with pytest.raises(ValueError, match="actuator width must be positive"):
        cls.assemble(cls.params_cls(), width)


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("frac", [-0.2, 0.0, 1.02, float("nan")])
def test_actuator_support_must_stay_in_the_domain(name, frac):
    # a centre at frac times a side, in any one component, puts the support
    # partly or wholly outside the domain (or is NaN); both models reject it
    cls = MODELS[name]
    disc = cls.assemble(cls.params_cls(), cls.default_act_width)
    sides = np.array(disc.domain(disc.params))
    disc.b_of_r(0.5 * sides)
    for c in range(disc.r_dim):
        center = 0.5 * sides
        center[c] = frac * sides[c]
        with pytest.raises(ValueError, match="actuator support .* leaves the domain"):
            disc.b_of_r(center)


def test_package_exports_exactly_what_it_imports():
    with open(actuopt.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(actuopt.__all__) == sorted(imported)
    assert len(set(actuopt.__all__)) == len(actuopt.__all__)
    namespace = {}
    exec("from actuopt import *", namespace)
    for name in actuopt.__all__:
        assert namespace[name] is getattr(actuopt, name)


FNL_CASES = {name: minimal(name) for name in NAMES}
FNL_CASES.update({
    f"wave-{fam}": minimal("wave") + f"[wave]\nnonlinearity = {fam}\n"
    for fam in ("none", "sine_gordon", "klein_gordon")
})
FNL_CASES["wave-klein_gordon-3"] = (
    minimal("wave") + "[wave]\nnonlinearity = klein_gordon\nkg_exponent = 3\n")


@pytest.mark.parametrize("case", sorted(FNL_CASES))
def test_fnl_diag_of_trajectory_equals_row_stack(case):
    cfg = parse_config_text(FNL_CASES[case] + "[time]\nt_final = 0.1\nn_steps = 4\n")
    disc = build_problem(cfg)["disc"]
    traj = 2.0 * np.random.default_rng(0).standard_normal((7, disc.n_dof))
    whole = disc.fnl_diag(traj)
    rows = np.stack([disc.fnl_diag(row) for row in traj])
    assert whole.shape == rows.shape == (7, disc.n_space)
    assert whole.tobytes() == rows.tobytes()


def test_no_model_name_comparisons_outside_the_models():
    pkg = os.path.dirname(os.path.abspath(actuopt.__file__))
    found = []
    for module in ("config.py", "cli.py", "optimizer.py", "core_system.py",
                   "adjoint_grad.py"):
        with open(os.path.join(pkg, module), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            if any(isinstance(sub, ast.Constant) and sub.value in ("beam", "wave")
                   for op in operands for sub in ast.walk(op)):
                found.append(f"{module}:{node.lineno}")
    assert found == []
