"""Generic abstract-interpretation machinery.

The cache analyses in :mod:`repro.analysis` are instances of the classic
worklist fixpoint computation (Algorithm 1 in the paper).  This package
provides that machinery in a domain-independent form:

* :mod:`repro.ai.lattice` — the :class:`AbstractValue` protocol every
  domain element implements (join / widen / leq / bottom check);
* :mod:`repro.ai.solver` — the forward worklist solver over a CFG.
"""

from repro.ai.lattice import AbstractValue
from repro.ai.solver import FixpointResult, solve_forward

__all__ = [
    "AbstractValue",
    "FixpointResult",
    "solve_forward",
]
