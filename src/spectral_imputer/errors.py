"""Exception types raised across the package.

Every error the library raises on bad input or bad configuration derives
from :class:`SpectralImputerError`, so the CLI can catch one base class and
turn it into a single-line diagnostic with a nonzero exit code.  Bugs
(assertion failures, index errors) are deliberately left outside this
hierarchy.
"""


class SpectralImputerError(Exception):
    """Base class for all anticipated failures."""


class InputError(SpectralImputerError):
    """Malformed file content or inconsistent user-supplied data.

    `row`, when known, is the 0-based data row at fault.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConfigError(SpectralImputerError):
    """A requested combination of options cannot be run."""


class DegenerateDegreeError(SpectralImputerError):
    """A graph node has zero or negative degree where positive is required."""


class NoNeighborsError(SpectralImputerError):
    """A weight computation was asked for an empty neighbor set."""


class UndefinedScoreError(SpectralImputerError):
    """A score was requested over an empty set of scorable entries."""
