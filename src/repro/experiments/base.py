"""Common experiment configuration base and the experiment registry.

Every experiment module so far grew its own frozen config dataclass with the
same knobs (population size, seed) under slightly different spellings.  :class:`ExperimentConfig` is the shared base;
:class:`ExperimentSpec` + :func:`register_experiment` give the CLI and the
benchmarks one table to look experiments up in, instead of another
hand-maintained if/elif ladder per consumer.

``experiments/serving.py`` is the first registrant; existing experiments
migrate opportunistically (their config classes can subclass
:class:`ExperimentConfig` without changing any field defaults).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Tuple


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs every experiment shares (subclasses add their own fields)."""

    node_count: int = 200
    seed: int = 1


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment: its config type, presets and runner."""

    name: str
    help: str
    config_type: type
    #: Named preset configs (``"paper"``, ``"smoke"``, ...).
    presets: Mapping[str, ExperimentConfig] = field(default_factory=dict)
    #: ``runner(config) -> result`` (the result type is experiment-specific).
    runner: Callable = None

    def preset(self, name: str) -> ExperimentConfig:
        """One named preset config."""
        return self.presets[name]

    def run(self, config: ExperimentConfig):
        """Run the experiment with ``config``."""
        return self.runner(config)


_REGISTRY: Dict[str, ExperimentSpec] = {}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Register (or re-register, e.g. on module reload) one experiment."""
    _REGISTRY[spec.name] = spec
    return spec


def get_experiment(name: str) -> ExperimentSpec:
    """Look one registered experiment up by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def registered_experiments() -> Tuple[str, ...]:
    """The registered experiment names, sorted."""
    return tuple(sorted(_REGISTRY))
