"""Exception types shared across the workbench."""


class UqwbError(Exception):
    """Base class for workbench errors."""


class RejectedInputError(UqwbError):
    """Input outside the session's declared domain (weights, index ranges)."""


class ModeUnsupportedError(UqwbError):
    """Operation not defined in the current coefficient mode.

    Raised by K-derivation in paper-literal mode on blocks whose nilpotent
    part has index greater than two, where the literal coefficients cannot
    satisfy K*Kinv = 1.
    """


class ModuleInvalidError(UqwbError):
    """A representation violates its structural invariants."""


class ConstructionError(UqwbError):
    """A builder produced a representation that fails its own verification."""


class DiagnosticError(UqwbError):
    """A computation could not identify or decompose its input."""
