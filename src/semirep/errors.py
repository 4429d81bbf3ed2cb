"""Exception types raised across the toolkit.

Two families matter operationally: validation failures (bad input, broken
algebraic structure) and oracle disagreements (two independent computations
of the same number differ, signalling an internal bug). The CLI maps the
first family to exit code 1 and the second to exit code 2.
"""


class SemirepError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(SemirepError):
    """Input or intermediate data violates a structural invariant."""


class OracleDisagreement(SemirepError):
    """Two independent computations of the same quantity disagree."""


# -- validation family --------------------------------------------------------

class NotAGroup(ValidationError):
    """Multiplication table fails a group axiom; carries a witness."""


class CocycleMismatch(ValidationError):
    pass


class NotProjective(ValidationError):
    pass


class NotScalarRelated(ValidationError):
    pass


class NoUniqueHaar(ValidationError):
    pass


class NotAutomorphism(ValidationError):
    pass


class NotAntihomomorphism(ValidationError):
    pass


class NotCovariant(ValidationError):
    pass


class CovarianceFailure(ValidationError):
    pass


class NotStabilized(ValidationError):
    pass


class NonUnitaryExtraction(ValidationError):
    pass


class ParseError(ValidationError):
    pass


class IntegerRecoveryError(ValidationError):
    """A value expected to be an integer is too far from one."""


# -- oracle family -------------------------------------------------------------

class PeterWeylMismatch(OracleDisagreement):
    pass


class OrbitResolutionFailure(OracleDisagreement):
    pass


class FormulaMismatch(OracleDisagreement):
    pass


class CompletenessFailure(OracleDisagreement):
    pass


class GramFailure(OracleDisagreement):
    pass


class NonIntegerCoefficient(OracleDisagreement):
    pass
