"""The registry of models, keyed by the `[run] model` name.

Each value is the model's Discretization subclass; the docstring of
core_system.Discretization states the interface that the config, the CLI
and pickling use, so none of them branches on the model name.
"""
from .beam_model import BeamDiscretization
from .wave_model import WaveDiscretization

MODELS = {cls.model: cls for cls in (BeamDiscretization, WaveDiscretization)}
