"""The execution-backend registry: one source of truth for backend names.

Every seam that accepts a backend choice — :class:`repro.core.runner.Runner`,
the CLI's ``--backend`` flags, and service job payloads — validates against
this registry, so adding a backend (or catching a typo with a helpful
error) happens in exactly one place.

A backend is either *compiled* (``prepare`` translates the program once
into an object exposing the ``CompiledProgram`` execution surface —
``writes``, ``run``, ``run_batch``) or *interpreted* (``prepare`` is the
identity and execution goes through an
:class:`~repro.x86.emulator.Emulator`).  The backend decides how a
search target's outputs, validation, exhaustive checking and catalog
measurement run; :class:`repro.core.cost.CostFunction` runs every
rewrite as bound steps (:mod:`repro.x86.stepper`), resumed from prefix
checkpoints when the edit is known, whatever the backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.x86.jit import compile_program
from repro.x86.program import Program
from repro.x86.vector import vectorize_program


@dataclass(frozen=True)
class Backend:
    """A named execution strategy.

    ``compiled`` tells the Runner which dispatch shape to use: compiled
    backends execute through the prepared object itself and report a
    ``writes`` promise for pooled-state reuse; interpreted backends keep
    the program as-is and run it through an Emulator.  ``lane_arrays``
    marks a backend whose prepared programs execute a batch as lane
    arrays (``run_batch_columns``): the Runner then reads live-outs as
    rows and runs input grids from one tiled template.
    """

    name: str
    compiled: bool
    prepare: Callable[[Program], object]
    lane_arrays: bool = False


_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add a backend to the registry (last registration wins)."""
    _REGISTRY[backend.name] = backend
    return backend


def known_backends() -> Tuple[str, ...]:
    """Registered backend names, sorted for stable display."""
    return tuple(sorted(_REGISTRY))


def resolve_backend(name: str) -> Backend:
    """Look up a backend by name; unknown names list the valid choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        choices = ", ".join(known_backends())
        raise ValueError(
            f"unknown backend: {name!r} (known backends: {choices})"
        ) from None


register_backend(Backend("jit", compiled=True, prepare=compile_program))
register_backend(Backend("emulator", compiled=False,
                         prepare=lambda program: program))
register_backend(Backend("vector", compiled=True, prepare=vectorize_program,
                         lane_arrays=True))
