"""Declarative experiment registry.

Experiments register themselves with the :func:`experiment` decorator,
declaring *in metadata* everything the CLI used to hardcode: the options
they accept (``full`` for the 192-point design space, ``benchmarks`` for a
workload subset, ...), the keyword overrides of their fast "smoke" preset,
and whether their output is deterministic.  The CLI therefore treats every
experiment uniformly — there is no ``name in ("figure5", "figure9")``
special case anywhere.

The registered runner has the signature ``fn(session, **options) ->
ExperimentResult``; :func:`run_experiment` assembles the option values that
apply (unsupported options are simply not passed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.obs.tracing import span
from repro.runtime.result import ExperimentResult
from repro.runtime.session import Session


@dataclass(frozen=True)
class ExperimentSpec:
    """One registered experiment and its CLI-facing metadata."""

    name: str
    runner: Callable[..., ExperimentResult]
    title: str
    #: Keyword options the runner accepts (e.g. ``("full", "benchmarks")``).
    options: tuple[str, ...] = ()
    #: Option overrides selecting the fast subset (``--smoke``).
    smoke: Mapping[str, Any] = field(default_factory=dict)
    #: False when the output contains wall-clock measurements.
    deterministic: bool = True

    def supports(self, option: str) -> bool:
        return option in self.options


#: Registration (paper) order: Table 2 first, then the figures, then speedup.
EXPERIMENTS: dict[str, ExperimentSpec] = {}


def experiment(name: str, *, title: str, options: tuple[str, ...] = (),
               smoke: Mapping[str, Any] | None = None,
               deterministic: bool = True) -> Callable:
    """Class the decorated function as the runner of experiment ``name``."""

    def register(fn: Callable[..., ExperimentResult]) -> Callable:
        unsupported = set(smoke or {}) - set(options)
        if unsupported:
            raise ValueError(
                f"experiment {name!r}: smoke preset uses undeclared "
                f"options {sorted(unsupported)}"
            )
        if name in EXPERIMENTS:
            raise ValueError(f"experiment {name!r} registered twice")
        EXPERIMENTS[name] = ExperimentSpec(
            name=name, runner=fn, title=title, options=tuple(options),
            smoke=dict(smoke or {}), deterministic=deterministic,
        )
        return fn

    return register


def get_experiment(name: str) -> ExperimentSpec:
    _ensure_loaded()
    try:
        return EXPERIMENTS[name]
    except KeyError as exc:
        known = ", ".join(EXPERIMENTS)
        raise KeyError(f"unknown experiment {name!r}; known: {known}") from exc


def experiment_names() -> list[str]:
    _ensure_loaded()
    return list(EXPERIMENTS)


def run_experiment(session: Session, name: str, *, full: bool = False,
                   smoke: bool = False,
                   overrides: Mapping[str, Any] | None = None) -> ExperimentResult:
    """Run one experiment with uniformly applied option flags.

    ``full`` and the smoke preset reach only experiments that declared the
    corresponding options; ``overrides`` must name declared options.
    """
    spec = get_experiment(name)
    kwargs: dict[str, Any] = {}
    if smoke:
        kwargs.update(spec.smoke)
    if full and spec.supports("full"):
        kwargs["full"] = True
    for option, value in (overrides or {}).items():
        if not spec.supports(option):
            raise ValueError(
                f"experiment {name!r} does not support option {option!r} "
                f"(declared: {spec.options or '()'})"
            )
        kwargs[option] = value
    with span(f"experiment.{spec.name}"):
        result = spec.runner(session, **kwargs)
    result.deterministic = spec.deterministic
    return result


def _ensure_loaded() -> None:
    """Import the experiment package so its modules self-register."""
    import repro.experiments  # noqa: F401
