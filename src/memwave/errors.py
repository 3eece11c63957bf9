"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/config problems -> 2, a
``NumericalFailure`` (instability, ill-conditioning, inconsistent assembly)
-> 3.  Verification failures are reported, not raised.
"""


class UsageError(ValueError):
    """A caller violated a documented precondition (bad shapes, bad config,
    inadmissible control, grid mismatch, unknown family name)."""


class NumericalFailure(RuntimeError):
    """A computation on admissible input broke down numerically."""


class NumericalInstabilityError(NumericalFailure):
    """A marching scheme produced a non-finite value.  The message names the
    first offending grid node."""


class IllConditionedError(NumericalFailure):
    """A linear solve hit a (near-)singular system: vanishing Volterra
    diagonal, a connecting operator that is not positive (the message names
    the depth where its factorization fails) or one whose condition number
    is beyond threshold."""


class AssemblyError(NumericalFailure):
    """The connecting kernel assembled from finite data has a non-finite
    entry: the data overflow the assembly.  The message names the first
    such sample (t_i, s_j)."""
