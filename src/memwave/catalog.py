"""Sample problems, named in the catalogue or given by a config's families;
``ProblemSpec.fields`` is the one sampler of a problem."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError
from .model import (
    CoefficientField,
    GridSpec,
    MemoryKernel,
    coefficient_from_family,
    kernel_from_family,
)

__all__ = ["ProblemSpec", "PROBLEMS", "get_problem"]


@dataclass(frozen=True)
class ProblemSpec:
    """A potential/memory-kernel pair given by closed-form sample families;
    ``name`` is None for a pair a config gives by its families."""

    name: str | None
    q_family: str
    q_params: tuple
    k_family: str
    k_params: tuple
    note: str = ""

    def fields(self, grid: GridSpec) -> tuple[CoefficientField, MemoryKernel]:
        q = coefficient_from_family(self.q_family, self.q_params, grid)
        K = kernel_from_family(self.k_family, self.k_params, grid)
        return q, K


PROBLEMS = {
    p.name: p
    for p in (
        ProblemSpec("free", "zero", (), "zero", (),
                    note="no potential, no memory; everything closed-form"),
        ProblemSpec("memory_only_small", "zero", (), "constant", (0.01,),
                    note="weak constant memory; first-order theory applies"),
        ProblemSpec("potential_only_small", "constant", (0.01,), "zero", (),
                    note="weak constant potential; first-order theory applies"),
        ProblemSpec("classical", "gaussian_bump", (0.5, 0.1, 1.0), "zero", (),
                    note="memoryless benchmark with a localized potential"),
        ProblemSpec("full", "gaussian_bump", (0.5, 0.1, 1.0),
                    "exp_decay", (1.0, 1.0),
                    note="localized potential with exponentially fading memory"),
    )
}


def get_problem(name: str) -> ProblemSpec:
    try:
        return PROBLEMS[name]
    except KeyError:
        known = ", ".join(sorted(PROBLEMS))
        raise UsageError(f"unknown problem {name!r}; catalogue: {known}") from None
