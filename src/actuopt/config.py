"""Plain sectioned key-value experiment configuration.

Grammar: `[section]` headers, `key = value` lines, `#` comments, blank
lines ignored. Every key belongs to a fixed per-section schema; unknown
sections or keys, duplicates, and type and range errors are rejected
with the offending line number; a rule across keys names their section
or the keys. All keys have defaults, so the minimal valid file is just

    [run]
    model = beam

Each plain key is declared once, as an ExperimentConfig field whose
metadata holds its section, key name and parser (see _key); the field's
default is the key's default. The `[<model>]` and `[optimizer]` sections
are the fields of the model's parameter dataclass and of OptimizerConfig.
The schema, the parser's defaults and the canonical serialization
(canonical_text) all follow from these fields, in field order; the
canonical text reparses to an equal ExperimentConfig, which is the
round-trip contract echoed in summary.json.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core_system import STATE_CEILING, CostSpec, TimeGrid, support_leaves
from .models import MODELS
from .optimizer import MIN_GRID, OptimizerConfig, ProjectionSpec


class ConfigError(ValueError):
    """Configuration file rejected; message carries line/field context."""


def _f(s):
    val = float(s)
    if not math.isfinite(val):
        raise ValueError(f"expected a finite number, got {s!r}")
    return val


def _i(s):
    if not s.lstrip("+-").isdigit():
        raise ValueError(f"expected an integer, got {s!r}")
    return int(s)


def _at_least(k):
    def parse(s):
        val = _i(s)
        if val < k:
            raise ValueError(f"expected an integer >= {k}, got {s!r}")
        return val
    return parse


def _positive(s):
    val = _f(s)
    if not val > 0.0:
        raise ValueError(f"expected a positive number, got {s!r}")
    return val


def _within_ceiling(s):
    val = _f(s)
    if not abs(val) <= STATE_CEILING:
        raise ValueError(f"expected a magnitude of at most {STATE_CEILING:g}, got {s!r}")
    return val


def _one_of(*names):
    def parse(s):
        if s not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {s!r}")
        return s
    return parse


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


def _key(section, key, parser, default):
    """The field of config key `key` in [section]: parser and default."""
    return dataclasses.field(
        default=default, metadata={"section": section, "key": key, "parser": parser}
    )


@dataclass(kw_only=True)
class ExperimentConfig:
    """A parsed configuration; the field order is the canonical key order."""

    model: str = _key("run", "model", _s, None)  # required: None is rejected
    seed: int = _key("run", "seed", _at_least(0), 0)
    t_final: float = _key("time", "t_final", _positive, 2.0)
    n_steps: int = _key("time", "n_steps", _at_least(2), 400)
    params: object  # the [<model>] section: the model's params_cls
    act_width: float = _key("actuator", "width", _positive, None)  # None: the model's
    r_init: object = _key("actuator", "r_init", _s, "center")  # or tuple of floats
    q1: str = _key("cost", "q1", _s, "uniform")
    q2: str = _key("cost", "q2", _s, "uniform")
    r_weight: float = _key("cost", "r_weight", _positive, 1.0)
    init_kind: str = _key("init", "kind", _one_of("sine", "gaussian", "zero"), "sine")
    init_amplitude: float = _key("init", "amplitude", _within_ceiling, 1.0)
    init_mode: int = _key("init", "mode", _at_least(1), 1)
    init_center: tuple = _key("init", "center", _s, None)  # None: domain center
    init_sigma: float = _key("init", "sigma", _positive, 0.1)
    control_kind: str = _key("control", "kind", _one_of("zero", "sine"), "zero")
    control_amplitude: float = _key("control", "amplitude", _f, 1.0)
    control_freq: float = _key("control", "freq", _f, 1.0)
    r_ad: float = _key("admissible", "r_ad", _positive, 10.0)
    # "auto" or flat tuple (lo1, hi1[, lo2, hi2])
    r_box: object = _key("admissible", "r_box", _s, "auto")
    opt: OptimizerConfig = dataclasses.field(metadata={"section": "optimizer"})
    n_directions: int = _key("gradcheck", "n_directions", _at_least(1), 10)
    corrupt: bool = _key("gradcheck", "corrupt", _b, False)
    n_grid: int = _key("gridsearch", "n_grid", _at_least(MIN_GRID), 64)
    # "center" or tuple of floats (beam) / tuple of pairs (wave)
    probe: object = _key("output", "probe", _s, "center")


# the sections built from a dataclass (the models' parameters and the
# optimizer) parse each field by the type of the field's default, and check
# it at its line by building the class with only that field set; a rule
# across fields waits for the whole section
_PARSERS = {float: _f, int: _i, str: _s, tuple: _names}


def _field_parser(cls, name, parse):
    return lambda s: getattr(cls(**{name: parse(s)}), name)


def _fields_schema(cls):
    return {f.name: _field_parser(cls, f.name, _PARSERS[type(f.default)])
            for f in dataclasses.fields(cls)}


_KEYS = [f for f in dataclasses.fields(ExperimentConfig) if "key" in f.metadata]
_SCHEMA = {"optimizer": _fields_schema(OptimizerConfig)}
for _meta in (f.metadata for f in _KEYS):
    _SCHEMA.setdefault(_meta["section"], {})[_meta["key"]] = _meta["parser"]
for _name, _model in MODELS.items():
    _SCHEMA[_name] = _fields_schema(_model.params_cls)


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
            raw[(section, key)] = _SCHEMA[section][key](val)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from None

    # every plain key, given or its field's default; the dataclass
    # sections ([<model>], [optimizer]) stay in raw
    values = {f.name: raw.pop((f.metadata["section"], f.metadata["key"]), f.default)
              for f in _KEYS}
    name = values["model"]
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

    def build(cls, section):
        try:
            return cls(**{k: v for (sec, k), v in raw.items() if sec == section})
        except ValueError as exc:
            raise ConfigError(f"{source}: [{section}] section: {exc}") from None

    params = build(model.params_cls, name)
    domain = model.domain(params)
    r_dim = len(domain)

    if values["act_width"] is None:
        values["act_width"] = model.default_act_width
    act_width = values["act_width"]

    def check_support(point, what, width=0.0):
        # the model's rule: the point (width 0) or the support about it is inside
        c = support_leaves(point, width, domain)
        if c is not None:
            why = "lets the actuator support leave" if width else "lies outside"
            raise ConfigError(f"{source}: {what} component {c + 1} {why} the domain "
                              f"[0, {domain[c]}]")

    if values["r_init"] != "center":
        values["r_init"] = _floats(values["r_init"], f"{source}: [actuator] r_init",
                                   r_dim)
        check_support(values["r_init"], "[actuator] r_init", act_width)

    for key in ("q1", "q2"):
        _gaussian(values[key], r_dim, f"{source}: [cost] {key}")
    if values["init_center"] is None:
        values["init_center"] = tuple(d / 2.0 for d in domain)
    else:
        values["init_center"] = _floats(values["init_center"],
                                        f"{source}: [init] center", r_dim)
        check_support(values["init_center"], "[init] center")

    if values["r_box"] != "auto":
        values["r_box"] = _floats(values["r_box"], f"{source}: [admissible] r_box",
                                  2 * r_dim)
    box = _box(model, params, values["r_box"], act_width)
    for c, (lo, hi) in enumerate(box):
        if not lo <= hi:
            raise ConfigError(f"{source}: [admissible] r_box component {c + 1} "
                              f"empty (lo > hi) with [actuator] width {act_width}")
    for corner in box.T:  # an automatic box passes: a cell inside [w, L - w]
        check_support(corner, "[admissible] r_box", act_width)

    if values["probe"] != "center":
        # one-dimensional probes are a list of numbers, others "x, y; x, y"
        points = tuple(
            _floats(point, f"{source}: [output] probe", r_dim)
            for point in values["probe"].split("," if r_dim == 1 else ";")
            if point.strip()
        )
        if not points:
            raise ConfigError(f"{source}: [output] probe is empty")
        for k, point in enumerate(points):
            check_support(point, f"[output] probe point {k + 1}")
        values["probe"] = tuple(p for (p,) in points) if r_dim == 1 else points

    return ExperimentConfig(params=params, opt=build(OptimizerConfig, "optimizer"),
                            **values)


def _gaussian(preset, r_dim, where):
    """(center, width) of a gaussian(center..., width) preset, else None."""
    if preset in ("uniform", "zero"):
        return None
    if preset.startswith("gaussian(") and preset.endswith(")"):
        *center, width = _floats(preset[len("gaussian("):-1],
                                 f"{where}: gaussian arguments", r_dim + 1)
        if not width > 0.0:
            raise ConfigError(f"{where}: gaussian width must be positive")
        return center, width
    raise ConfigError(
        f"{where}: unknown preset {preset!r} "
        "(use uniform, zero, or gaussian(center...,width))"
    )


def load_config(path):
    """Parse the config file at path, UTF-8 with or without a BOM."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text, source=str(path))


def _fmt(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        # the points of a two-dimensional probe are "x, y; x, y"
        sep = ";" if value and isinstance(value[0], tuple) else ","
        return sep.join(_fmt(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def canonical_text(cfg):
    """Serialize with every applicable key explicit, in field order."""
    lines, current = [], None
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        if dataclasses.is_dataclass(value):
            section = f.metadata.get("section", cfg.model)
            pairs = [(g.name, getattr(value, g.name))
                     for g in dataclasses.fields(value)]
        else:
            section, pairs = f.metadata["section"], [(f.metadata["key"], value)]
        if section != current:
            lines += ["", f"[{section}]"]
            current = section
        lines += [f"{key} = {_fmt(v)}" for key, v in pairs]
    return "\n".join(lines[1:]) + "\n"


def _eval_preset(preset, coords):
    """Evaluate a q1/q2 preset on the model's coordinate arrays."""
    if preset == "uniform":
        return np.ones_like(coords[0])
    if preset == "zero":
        return np.zeros_like(coords[0])
    center, width = _gaussian(preset, len(coords), "gaussian preset")
    d2 = sum((x - c) ** 2 for x, c in zip(coords, center))
    return np.exp(-d2 / (2.0 * width**2))


def control_series(cfg, times):
    """Sample the configured control signal on a vector of time nodes."""
    if cfg.control_kind == "zero":
        return np.zeros_like(np.asarray(times, dtype=float))
    return cfg.control_amplitude * np.sin(
        2.0 * np.pi * cfg.control_freq * np.asarray(times, dtype=float)
    )


def _box(model, params, r_box, width):
    """r_box as (r_dim, 2) rows (lo, hi); "auto" is one cell inside
    [width, L - width] per dimension."""
    domain = model.domain(params)
    if r_box == "auto":
        return np.array([[width + h, length - width - h]
                         for length, h in zip(domain, model.spacing(params))])
    return np.reshape(r_box, (len(domain), 2))


def build_problem(cfg):
    """Materialize runtime objects for a parsed configuration.

    Returns a dict with disc, grid, cost, x0, u0, pspec, r_init (array),
    and probe points resolved to coordinates.
    """
    grid = TimeGrid(cfg.t_final, cfg.n_steps)
    model = MODELS[cfg.model]
    domain = model.domain(cfg.params)
    disc = model.assemble(cfg.params, cfg.act_width)
    coords = disc.cost_coords()
    q1 = _eval_preset(cfg.q1, coords)
    q2 = _eval_preset(cfg.q2, coords)

    m = disc.n_space
    dofs = disc.dof_coords()
    x0 = np.zeros(disc.n_dof)
    if cfg.init_kind == "sine":
        x0[:m] = cfg.init_amplitude * math.prod(
            np.sin(cfg.init_mode * np.pi * x / length)
            for x, length in zip(dofs, domain)
        )
    elif cfg.init_kind == "gaussian":
        d2 = sum((x - c) ** 2 for x, c in zip(dofs, cfg.init_center))
        x0[:m] = cfg.init_amplitude * np.exp(-d2 / (2.0 * cfg.init_sigma**2))

    box = _box(model, cfg.params, cfg.r_box, cfg.act_width)
    if cfg.probe == "center":
        probe_pts = (tuple(length / 2.0 for length in domain),)
    else:
        probe_pts = tuple((p,) for p in cfg.probe) if len(domain) == 1 else cfg.probe

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
