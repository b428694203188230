"""The registry of models, keyed by the `[run] model` name.

A model object carries what the config and the CLI need to know about
one model, so neither branches on the model name (a Discretization
pickles as a call of its model's assemble, found here on unpickling):

    name, params_cls    the [run] model name and the parameter dataclass;
                        its fields and defaults are the config section
    act_width           the default actuator half-width
    domain(params)      side lengths, one per design dimension
    spacing(params)     grid spacing, one per design dimension
    assemble(params, act_width) -> Discretization
    cost_coords(disc)   coordinate arrays where q1/q2 are sampled
    dof_coords(disc)    coordinate arrays of the position dofs
    probe_columns(disc, points, traj) -> one displacement series per point
    greens_check(params) -> the oracle's Green's-function report, or None
"""
from .beam_model import BEAM
from .wave_model import WAVE

MODELS = {model.name: model for model in (BEAM, WAVE)}
