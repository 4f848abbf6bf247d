"""Exception types shared across the package.

Every error raised by levelgraph derives from :class:`LevelGraphError`, so
callers can catch one base class at an API boundary (the CLI does exactly
that).  The leaf classes are deliberately fine-grained: each one names either
a hypothesis the input breaks (a critical point right of the imaginary axis,
two boundary points on different levels, a vanishing total charge, a
boundary point no level graph reaches) or a
numerical stage that failed or disagreed with a cross-check (a corrector or
flow that did not converge, a phase lift that contradicts the grade of the
total charge).
"""


class LevelGraphError(Exception):
    """Base class for all levelgraph errors."""


class _FailedComparison(LevelGraphError):
    """A rejection decided by one comparison: value against threshold."""

    def __init__(self, value, threshold, message):
        self.value, self.threshold = value, threshold
        super().__init__(message)

    def __reduce__(self):  # args holds the message only; pickle all three
        return type(self), (self.value, self.threshold, str(self))


# ---------------------------------------------------------------------------
# polynomial layer


class ZeroPolynomial(LevelGraphError):
    """An operation that needs a nonzero polynomial got the zero polynomial."""


# ---------------------------------------------------------------------------
# Cauchy-index layer


class DenominatorIdenticallyZero(LevelGraphError):
    """The denominator of a rational function vanishes identically."""


# ---------------------------------------------------------------------------
# landscape / stability layer


class CriticalPointInRHP(LevelGraphError):
    """w' has a root with positive real part; the whole pipeline is undefined."""

    def __init__(self, root, message=None):
        self.root = root
        super().__init__(message or f"critical point {root} lies in the open right half-plane")

    def __reduce__(self):  # args holds the message only; pickle the root too
        return type(self), (self.root, str(self))


class DegenerateLine(LevelGraphError):
    """Re(w'(x0+iy)) is identically zero in y; counting is undefined on that line."""


class LevelMismatch(_FailedComparison):
    """The two boundary points do not lie on a common level set of Im(w):
    |value| = |Im w(z2)|, level of z1 shifted to 0, exceeds threshold."""


# ---------------------------------------------------------------------------
# tracer


class SeedNotOnCurve(LevelGraphError):
    """The trace seed does not satisfy the level equation within tolerance."""


class CorrectorDiverged(LevelGraphError):
    """Newton correction failed to restore the level equation at minimum step size."""


# ---------------------------------------------------------------------------
# flow


class Diverged(LevelGraphError):
    """The flow residual exceeded the divergence threshold."""


class NonIntegrableEndpoint(LevelGraphError):
    """|Im w(z_f)| / sigma blew up near an endpoint during the flow."""


# ---------------------------------------------------------------------------
# dHYM pipeline


class ZeroTotalCharge(LevelGraphError):
    """P(z2) = 0 to within TOL.zero_charge sum |c_k| |z2|^k: the total charge
    vanishes and the phase angle is undefined."""


class BoundaryPointUnreachable(_FailedComparison):
    """Re w'(z2) < 0, off the wall: no graph over [0, b] on the zero level ends at z2.

    Along such a graph Re(w) rises strictly from w(0) = 0 to w(z2) > 0, so
    it needs Re w'(z2) > 0; the class data admit no level graph to test.
    value = Re w'(z2), read from the factors e^{-i theta_hat} z2^r (xi + z2)^m
    as the lifts read it, does not exceed threshold = TOL.sign |w'(z2)|.  z2
    on a wall, Re w'(z2) = 0 to TOL.sign, gets the wall verdict instead.
    """


class LiftInconsistency(LevelGraphError):
    """The Z_Dinf path's closed-form end grade disagrees with phi_X + delta/pi."""


class CrossCheckFailure(LevelGraphError):
    """Index-form and grade-form existence tests disagree."""
