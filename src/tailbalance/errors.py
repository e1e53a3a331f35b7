"""Exception hierarchy shared across the package.

Two families matter to callers:

* ``DomainError`` covers bad inputs (values outside their documented
  ranges, malformed configs, unsupported sizes).  The CLI maps these to
  exit code 1.
* ``SolverError`` covers mathematically degenerate problems that were
  well-formed as input but admit no (unique) solution.  The CLI maps
  these to exit code 2.  An alpha spec whose declared ``theta`` is off
  its alpha(-1) is one: it parses, and the solver refuses it
  (``InvalidBoundary``).
"""


class TailBalanceError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TailBalanceError, ValueError):
    """An input value is outside its documented domain."""


class EvenJury(DomainError):
    """A vote tally over an even panel can tie, so the verdict is undefined."""


class SizeLimit(DomainError):
    """The requested exact computation exceeds its supported size."""


class SolverError(TailBalanceError):
    """A well-formed problem turned out to be degenerate."""


class DegenerateAlpha(SolverError):
    """The tail-balance denominator vanishes somewhere, so no unique CDF exists."""


class DegenerateAbility(SolverError):
    """A closed form requires a > 0 and the supplied ability is zero."""


class SingularCoefficients(SolverError):
    """The affine-pair system is singular: 1 - delta(t)*delta(-t) vanishes."""

    def __init__(self, t: float, value: float):
        self.t = float(t)
        self.value = float(value)
        super().__init__(
            f"affine pair is singular at t={self.t!r}: "
            f"1 - delta(t)*delta(-t) = {self.value!r}"
        )


class InvalidBoundary(SolverError):
    """alpha(-1) disagrees with the prior it is supposed to encode."""


class Indeterminate(SolverError):
    """A conditional probability reduced to 0/0 away from the boundary."""
