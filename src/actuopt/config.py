"""Plain sectioned key-value experiment configuration.

Grammar: `[section]` headers, `key = value` lines, `#` comments, blank
lines ignored. Every key belongs to a fixed per-section schema; unknown
sections or keys, duplicates, type errors, and cross-field violations are
rejected with the offending line number. All keys have defaults, so the
minimal valid file is just

    [run]
    model = beam

The canonical serialization (canonical_text) writes every key of every
applicable section in a fixed order; it reparses to an equal
ExperimentConfig, which is the round-trip contract echoed in summary.json.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .beam_model import BeamParams
from .core_system import CostSpec, TimeGrid
from .models import MODELS
from .optimizer import MIN_GRID, OptimizerConfig, ProjectionSpec
from .wave_model import WaveParams


class ConfigError(ValueError):
    """Configuration file rejected; message carries line/field context."""


@dataclass
class ExperimentConfig:
    model: str
    seed: int
    t_final: float
    n_steps: int
    beam: BeamParams
    wave: WaveParams
    act_width: float
    r_init: object  # "center" or tuple of floats
    q1: str
    q2: str
    r_weight: float
    init_kind: str
    init_amplitude: float
    init_mode: int
    init_center: tuple
    init_sigma: float
    control_kind: str
    control_amplitude: float
    control_freq: float
    r_ad: float
    r_box: object  # "auto" or flat tuple (lo1, hi1[, lo2, hi2])
    opt: OptimizerConfig
    n_directions: int
    corrupt: bool
    n_grid: int
    out_dir: str
    probe: object  # "center" or tuple of floats (beam) / tuple of pairs (wave)

    @property
    def params(self):
        """The parameters of the configured model."""
        return getattr(self, self.model)

    @property
    def domain(self):
        """Side lengths of the model's domain, one per design dimension."""
        return MODELS[self.model].domain(self.params)


def _f(s):
    val = float(s)
    if not math.isfinite(val):
        raise ValueError(f"expected a finite number, got {s!r}")
    return val


def _i(s):
    if not s.lstrip("+-").isdigit():
        raise ValueError(f"expected an integer, got {s!r}")
    return int(s)


def _b(s):
    low = s.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean (true/false), got {s!r}")


def _s(s):
    return s


def _names(s):
    return tuple(e.strip() for e in s.split(",") if e.strip())


# the sections built from a dataclass (the models' parameters and the
# optimizer) parse each field by the type of the field's default
_PARSERS = {float: _f, int: _i, str: _s, tuple: _names}


def _fields_schema(cls):
    return {f.name: _PARSERS[type(f.default)] for f in dataclasses.fields(cls)}


_SCHEMA = {
    "run": {"model": _s, "seed": _i},
    "time": {"t_final": _f, "n_steps": _i},
    "actuator": {"width": _f, "r_init": _s},
    "cost": {"q1": _s, "q2": _s, "r_weight": _f},
    "init": {"kind": _s, "amplitude": _f, "mode": _i, "center": _s, "sigma": _f},
    "control": {"kind": _s, "amplitude": _f, "freq": _f},
    "admissible": {"r_ad": _f, "r_box": _s},
    "optimizer": _fields_schema(OptimizerConfig),
    "gradcheck": {"n_directions": _i, "corrupt": _b},
    "gridsearch": {"n_grid": _i},
    "output": {"out_dir": _s, "probe": _s},
}
for _model in MODELS.values():
    _SCHEMA[_model.name] = _fields_schema(_model.params_cls)


def _floats(spec, what, count=None):
    parts = [p.strip() for p in spec.split(",") if p.strip() != ""]
    try:
        vals = tuple(_f(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    if count is not None and len(vals) != count:
        raise ConfigError(f"{what}: expected {count} number(s), got {len(vals)}")
    return vals


def parse_config_text(text, source="<config>"):
    """Parse configuration text into an ExperimentConfig (strict)."""
    raw = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        where = f"{source}:{lineno}"
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(
                    f"{where}: unknown section [{section}] "
                    f"(known: {', '.join(sorted(_SCHEMA))})"
                )
            continue
        if "=" not in body:
            raise ConfigError(f"{where}: expected 'key = value', got {body!r}")
        if section is None:
            raise ConfigError(f"{where}: key outside of any [section]")
        key, _, val = body.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(
                f"{where}: unknown key {key!r} in section [{section}] "
                f"(known: {', '.join(sorted(_SCHEMA[section]))})"
            )
        if (section, key) in raw:
            raise ConfigError(f"{where}: duplicate key {key!r} in section [{section}]")
        try:
            raw[(section, key)] = (_SCHEMA[section][key](val), lineno)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None

    def take(section, key, default):
        return raw.pop((section, key), (default, None))[0]

    def given(section):
        return {k: raw.pop((sec, k))[0] for (sec, k) in list(raw) if sec == section}

    name = take("run", "model", None)
    if name is None:
        raise ConfigError(f"{source}: missing required key 'model' in [run]")
    if name not in MODELS:
        known = " or ".join(repr(n) for n in MODELS)
        raise ConfigError(f"{source}: model must be {known}, got {name!r}")
    stray = [sec for (sec, _) in raw if sec in MODELS and sec != name]
    if stray:
        raise ConfigError(
            f"{source}: section [{stray[0]}] is invalid when model = {name}"
        )
    model = MODELS[name]

    seed = take("run", "seed", 0)
    t_final = take("time", "t_final", 2.0)
    n_steps = take("time", "n_steps", 400)

    try:
        params = model.params_cls(**given(name))
    except ValueError as exc:
        raise ConfigError(f"{source}: [{name}] section: {exc}") from None
    domain = model.domain(params)
    r_dim = len(domain)

    act_width = take("actuator", "width", model.act_width)
    if not (act_width > 0.0):
        raise ConfigError(f"{source}: actuator width must be positive")

    def check_support(point, what):
        # the actuator support [p - width, p + width] must stay in the domain
        for c, p in enumerate(point):
            if not act_width <= p <= domain[c] - act_width:
                raise ConfigError(f"{source}: {what} component {c + 1} lets the "
                                  f"actuator support leave the domain (valid range "
                                  f"[{act_width}, {domain[c] - act_width}])")

    r_init_s = take("actuator", "r_init", "center")
    r_init = "center"
    if r_init_s != "center":
        r_init = _floats(r_init_s, f"{source}: [actuator] r_init", r_dim)
        check_support(r_init, "[actuator] r_init")

    q1 = take("cost", "q1", "uniform")
    q2 = take("cost", "q2", "uniform")
    for key, preset in (("q1", q1), ("q2", q2)):
        _check_preset(preset, r_dim, f"{source}: [cost] {key}")
    r_weight = take("cost", "r_weight", 1.0)
    if not (r_weight > 0.0 and math.isfinite(r_weight)):
        raise ConfigError(f"{source}: [cost] r_weight must be positive")

    init_kind = take("init", "kind", "sine")
    if init_kind not in ("sine", "gaussian", "zero"):
        raise ConfigError(
            f"{source}: [init] kind must be sine, gaussian, or zero, got {init_kind!r}"
        )
    init_amplitude = take("init", "amplitude", 1.0)
    init_mode = take("init", "mode", 1)
    if init_mode < 1:
        raise ConfigError(f"{source}: [init] mode must be >= 1")
    default_center = ",".join(repr(d / 2.0) for d in domain)
    init_center = _floats(
        take("init", "center", default_center), f"{source}: [init] center", r_dim
    )
    init_sigma = take("init", "sigma", 0.1)
    if not (init_sigma > 0.0):
        raise ConfigError(f"{source}: [init] sigma must be positive")

    control_kind = take("control", "kind", "zero")
    if control_kind not in ("zero", "sine"):
        raise ConfigError(
            f"{source}: [control] kind must be zero or sine, got {control_kind!r}"
        )
    control_amplitude = take("control", "amplitude", 1.0)
    control_freq = take("control", "freq", 1.0)

    r_ad = take("admissible", "r_ad", 10.0)
    if not (r_ad > 0.0 and math.isfinite(r_ad)):
        raise ConfigError(f"{source}: [admissible] r_ad must be positive")
    r_box_s = take("admissible", "r_box", "auto")
    if r_box_s == "auto":
        r_box = "auto"
        box = _auto_box(domain, model.spacing(params), act_width)
    else:
        r_box = _floats(r_box_s, f"{source}: [admissible] r_box", 2 * r_dim)
        box = np.reshape(r_box, (r_dim, 2))
    for c, (lo, hi) in enumerate(box):
        if not lo <= hi:
            raise ConfigError(f"{source}: [admissible] r_box component {c + 1} "
                              f"empty (lo > hi) with [actuator] width {act_width}")
    if r_box != "auto":
        check_support(box[:, 0], "[admissible] r_box")
        check_support(box[:, 1], "[admissible] r_box")

    try:
        opt = OptimizerConfig(**given("optimizer"))
    except ValueError as exc:
        raise ConfigError(f"{source}: [optimizer] section: {exc}") from None

    n_directions = take("gradcheck", "n_directions", 10)
    if n_directions < 1:
        raise ConfigError(f"{source}: [gradcheck] n_directions must be >= 1")
    corrupt = take("gradcheck", "corrupt", False)
    n_grid = take("gridsearch", "n_grid", 64)
    if n_grid < MIN_GRID:
        raise ConfigError(f"{source}: [gridsearch] n_grid must be >= {MIN_GRID}")

    out_dir = take("output", "out_dir", "runs/out")
    probe_s = take("output", "probe", "center")
    probe = "center"
    if probe_s != "center":
        points = tuple(
            _floats(point, f"{source}: [output] probe", r_dim)
            for point in probe_s.split(_probe_sep(r_dim))
            if point.strip()
        )
        if not points:
            raise ConfigError(f"{source}: [output] probe is empty")
        probe = tuple(p for (p,) in points) if r_dim == 1 else points

    if raw:
        (sec, key), (_, lineno) = next(iter(raw.items()))
        raise ConfigError(f"{source}:{lineno}: key {key!r} not consumed from [{sec}]")

    cfg = ExperimentConfig(
        model=name, seed=seed, t_final=t_final, n_steps=n_steps,
        **{n: params if n == name else None for n in MODELS},
        act_width=act_width, r_init=r_init, q1=q1, q2=q2,
        r_weight=r_weight, init_kind=init_kind, init_amplitude=init_amplitude,
        init_mode=init_mode, init_center=init_center, init_sigma=init_sigma,
        control_kind=control_kind, control_amplitude=control_amplitude,
        control_freq=control_freq, r_ad=r_ad, r_box=r_box, opt=opt,
        n_directions=n_directions, corrupt=corrupt, n_grid=n_grid,
        out_dir=out_dir, probe=probe,
    )
    try:
        TimeGrid(cfg.t_final, cfg.n_steps)
    except ValueError as exc:
        raise ConfigError(f"{source}: [time] section: {exc}") from None
    return cfg


def _check_preset(preset, r_dim, where):
    if preset in ("uniform", "zero"):
        return
    if preset.startswith("gaussian(") and preset.endswith(")"):
        *_, width = _floats(preset[len("gaussian("):-1],
                            f"{where}: gaussian arguments", r_dim + 1)
        if not width > 0.0:
            raise ConfigError(f"{where}: gaussian width must be positive")
        return
    raise ConfigError(
        f"{where}: unknown preset {preset!r} "
        "(use uniform, zero, or gaussian(center...,width))"
    )


def _probe_sep(r_dim):
    # one-dimensional probes are a list of numbers, others "x, y; x, y"
    return "," if r_dim == 1 else ";"


def _probe_points(cfg):
    """The configured probe as a tuple of points (no "center")."""
    if len(cfg.domain) == 1:
        return tuple((p,) for p in cfg.probe)
    return tuple(cfg.probe)


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def canonical_text(cfg):
    """Serialize with every applicable key explicit, in schema order."""
    lines = []

    def sec(name, pairs):
        lines.append(f"[{name}]")
        for k, v in pairs:
            lines.append(f"{k} = {v}")
        lines.append("")

    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, float):
            return repr(v)
        if isinstance(v, tuple):
            return ",".join(v)
        return str(v)

    def fmt_tuple(t):
        return ",".join(repr(float(x)) for x in t)

    def fields(obj):
        return [(f.name, fmt(getattr(obj, f.name))) for f in dataclasses.fields(obj)]

    sec("run", [("model", cfg.model), ("seed", cfg.seed)])
    sec("time", [("t_final", fmt(cfg.t_final)), ("n_steps", cfg.n_steps)])
    sec(cfg.model, fields(cfg.params))
    r_init = cfg.r_init if cfg.r_init == "center" else fmt_tuple(cfg.r_init)
    sec("actuator", [("width", fmt(cfg.act_width)), ("r_init", r_init)])
    sec("cost", [("q1", cfg.q1), ("q2", cfg.q2), ("r_weight", fmt(cfg.r_weight))])
    sec("init", [
        ("kind", cfg.init_kind), ("amplitude", fmt(cfg.init_amplitude)),
        ("mode", cfg.init_mode), ("center", fmt_tuple(cfg.init_center)),
        ("sigma", fmt(cfg.init_sigma)),
    ])
    sec("control", [
        ("kind", cfg.control_kind), ("amplitude", fmt(cfg.control_amplitude)),
        ("freq", fmt(cfg.control_freq)),
    ])
    r_box = cfg.r_box if cfg.r_box == "auto" else fmt_tuple(cfg.r_box)
    sec("admissible", [("r_ad", fmt(cfg.r_ad)), ("r_box", r_box)])
    sec("optimizer", fields(cfg.opt))
    sec("gradcheck", [("n_directions", cfg.n_directions), ("corrupt", fmt(cfg.corrupt))])
    sec("gridsearch", [("n_grid", cfg.n_grid)])
    probe = "center"
    if cfg.probe != "center":
        sep = _probe_sep(len(cfg.domain))
        probe = sep.join(fmt_tuple(p) for p in _probe_points(cfg))
    sec("output", [("out_dir", cfg.out_dir), ("probe", probe)])
    return "\n".join(lines)


def _eval_preset(preset, coords):
    """Evaluate a q1/q2 preset on the model's coordinate arrays."""
    if preset == "uniform":
        return np.ones_like(coords[0])
    if preset == "zero":
        return np.zeros_like(coords[0])
    *center, width = _floats(preset[len("gaussian("):-1], "gaussian preset")
    d2 = sum((x - c) ** 2 for x, c in zip(coords, center))
    return np.exp(-d2 / (2.0 * width**2))


def control_series(cfg, times):
    """Sample the configured control signal on a vector of time nodes."""
    if cfg.control_kind == "zero":
        return np.zeros_like(np.asarray(times, dtype=float))
    return cfg.control_amplitude * np.sin(
        2.0 * np.pi * cfg.control_freq * np.asarray(times, dtype=float)
    )


def _auto_box(domain, spacing, w):
    """The automatic r_box: one cell inside [w, L - w] per dimension."""
    return np.array([[w + h, length - w - h] for length, h in zip(domain, spacing)])


def build_problem(cfg):
    """Materialize runtime objects for a parsed configuration.

    Returns a dict with disc, grid, cost, x0, u0, pspec, r_init (array),
    and probe points resolved to coordinates.
    """
    grid = TimeGrid(cfg.t_final, cfg.n_steps)
    model = MODELS[cfg.model]
    domain = cfg.domain
    disc = model.assemble(cfg.params, cfg.act_width)
    coords = model.cost_coords(disc)
    q1 = _eval_preset(cfg.q1, coords)
    q2 = _eval_preset(cfg.q2, coords)

    m = disc.n_space
    dofs = model.dof_coords(disc)
    x0 = np.zeros(disc.n_dof)
    if cfg.init_kind == "sine":
        x0[:m] = cfg.init_amplitude * math.prod(
            np.sin(cfg.init_mode * np.pi * x / length)
            for x, length in zip(dofs, domain)
        )
    elif cfg.init_kind == "gaussian":
        d2 = sum((x - c) ** 2 for x, c in zip(dofs, cfg.init_center))
        x0[:m] = cfg.init_amplitude * np.exp(-d2 / (2.0 * cfg.init_sigma**2))

    if cfg.r_box == "auto":
        box = _auto_box(domain, model.spacing(cfg.params), cfg.act_width)
    else:
        box = np.asarray(cfg.r_box, dtype=float).reshape(len(domain), 2)
    probe_pts = (
        (tuple(length / 2.0 for length in domain),) if cfg.probe == "center"
        else _probe_points(cfg)
    )

    cost = CostSpec(q1=q1, q2=q2, r_weight=cfg.r_weight)
    pspec = ProjectionSpec(r_ad=cfg.r_ad, r_box=box)
    r_init = (
        box.mean(axis=1) if cfg.r_init == "center"
        else np.asarray(cfg.r_init, dtype=float)
    )

    u0 = control_series(cfg, grid.times)

    return {
        "disc": disc,
        "grid": grid,
        "cost": cost,
        "x0": x0,
        "u0": u0,
        "pspec": pspec,
        "r_init": r_init,
        "probe_pts": probe_pts,
    }
