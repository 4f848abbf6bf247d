"""Level-curve geometry of harmonic functions Im(w) for polynomial w.

The modules build strictly bottom-up (``tests/test_source_rules.py``): each
imports only ``config``, ``errors`` and modules listed above it, except that
``tracer``, ``kempf_ness`` and ``dhym`` need only ``poly`` and ``cauchy``:

- ``poly``: the only polynomial arithmetic -- complex polynomials built from
  coefficient lists (one product of root factors, one vertical-line
  expansion, Taylor coefficients exact on integers), multiplicity-aware
  root finding
- ``cauchy``: exact Cauchy indices of num/den given as float coefficient
  lists, and the certified phase climb that both verdicts' crossing counts
  share
- ``landscape``: critical points of Im(w) on the imaginary axis and the
  counting function for level-curve crossings
- ``stability``: the boundary-data trichotomy (stable / strictly semistable /
  unstable)
- ``tracer``: numeric continuation of the level curves and gradient-direction
  field curves, graphical-connection checks
- ``kempf_ness``: weighted energy functional on an interval, its flow, and
  its second variation
- ``dhym``: existence of solutions to the degenerate special-Lagrangian /
  line-bundle equation via phase lifts and Cauchy indices
- ``cli``: JSON/CSV command-line front end; the one place that encodes
  output (one JSON and one CSV encoder), and that traces and flows a
  verdict for output
"""

from .errors import (
    BoundaryPointUnreachable,
    CorrectorDiverged,
    CriticalPointInRHP,
    CrossCheckFailure,
    DegenerateLine,
    DenominatorIdenticallyZero,
    Diverged,
    LevelGraphError,
    LevelMismatch,
    LiftInconsistency,
    NonIntegrableEndpoint,
    SeedNotOnCurve,
    ZeroPolynomial,
    ZeroTotalCharge,
)

__all__ = [
    "BoundaryPointUnreachable",
    "CorrectorDiverged",
    "CriticalPointInRHP",
    "CrossCheckFailure",
    "DegenerateLine",
    "DenominatorIdenticallyZero",
    "Diverged",
    "LevelGraphError",
    "LevelMismatch",
    "LiftInconsistency",
    "NonIntegrableEndpoint",
    "SeedNotOnCurve",
    "ZeroPolynomial",
    "ZeroTotalCharge",
]
