"""Exception types shared across the toolkit.

Keeping these in one place lets the command line front end map failure
categories onto stable exit codes without string-matching messages.
"""


class ToolkitError(Exception):
    """Base class for all toolkit-specific failures."""


class InvalidInput(ToolkitError, ValueError):
    """An argument violates an operation's precondition."""


class DomainError(ToolkitError, ValueError):
    """The requested quantity is undefined for these parameters.

    Typical case: a flat (lambda = 0) prior makes an average diverge unless
    the channel gain is exactly matched to the task.
    """


class CutoffTooSmall(ToolkitError, ValueError):
    """A truncation too narrow: a Fock-space build the cutoff cannot hold, or weight
    past the cutoff beyond the caller's bound (an average's error estimate, a
    state's trace deficit)."""


class NotCompletelyPositive(DomainError):
    """A channel's (K, M) pair fails the complete-positivity criterion."""


class DatasetError(ToolkitError, ValueError):
    """A measurement dataset fails validation (labels, weights, CSV layout)."""

    def __init__(self, message, line=None):
        super().__init__(message)
        self.line = line


class UnsupportedTask(ToolkitError, ValueError):
    """The operation does not cover this channel family or task."""
