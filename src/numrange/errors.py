"""Exception hierarchy shared by all numrange modules.

The three intermediate bases map onto the CLI exit-code contract:
ParseError -> 2, NumericError -> 3, PreconditionError -> 4.
"""


class NumrangeError(Exception):
    pass


class ParseError(NumrangeError):
    pass


class NumericError(NumrangeError):
    pass


class PreconditionError(NumrangeError):
    pass


# --- linear algebra kernel ---

class NotHermitianError(PreconditionError):
    pass


class SingularError(NumericError):
    pass


class NoConvergenceError(NumericError):
    pass


# --- Blaschke products / Clark decompositions ---

class NotOnCircleError(PreconditionError):
    pass


class NotUnimodularError(PreconditionError):
    pass


class RequiresVanishingAtZeroError(PreconditionError):
    pass


class PoleHitError(NumericError):
    pass


# --- functional calculus ---

class PolesNearSpectrumError(NumericError):
    pass


# --- region geometry ---

class DomainError(PreconditionError):
    pass


class NegativeTError(PreconditionError):
    pass


# --- file / expression formats ---

class MatrixFileError(ParseError):
    pass


class FunctionExprError(ParseError):
    pass
