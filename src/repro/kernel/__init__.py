"""Compiled ground-program kernel: interned-int IR with flat-array evaluation.

The kernel represents a ground program as dense integers and flat arrays
(:class:`~repro.kernel.compile.CompiledProgram`) and evaluates the
well-founded model with counter propagation over them
(:mod:`repro.kernel.eval`).  The IR is produced two ways:

* :func:`~repro.kernel.ground.ground_compiled` grounds a program straight
  into it — terms interned once, semi-naive joins over int tuples, rule
  instances emitted as CSR ids, atoms decoded only at assemble.  This is
  the one-shot well-founded solve (:func:`~repro.engine.solver.solve`
  with ``engine="modular"`` or ``"kernel"``): ground → compile → evaluate
  → assemble, with no :class:`~repro.core.context.GroundContext`;
* :func:`~repro.kernel.compile.compile_context` lowers an existing
  :class:`~repro.core.context.GroundContext` (sessions and explicit
  ``kernel_well_founded`` calls).

The object-level engines (``modular`` via
:func:`~repro.core.modular.modular_well_founded`, and ``monolithic``)
remain the differential oracles.
"""

from .compile import CompiledProgram, compile_context, get_kernel
from .eval import (
    ComponentKernel,
    KernelResult,
    evaluate_compiled,
    kernel_model,
    kernel_well_founded,
)
from .intern import AtomTable

__all__ = [
    "AtomTable",
    "CompiledProgram",
    "compile_context",
    "get_kernel",
    "ComponentKernel",
    "KernelResult",
    "evaluate_compiled",
    "kernel_model",
    "kernel_well_founded",
]
