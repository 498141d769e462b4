"""Exception types shared across the package."""


class KBWaveError(Exception):
    """Base class for all kbwave errors."""


class InfinitePeriod(KBWaveError):
    """Complete elliptic integral requested at modulus 1 (period diverges)."""


class PoleSample(KBWaveError):
    """Evaluation requested too close to a pole of a singular branch."""


class InvalidConfiguration(KBWaveError, ValueError):
    """Root configuration does not match the requested solution family."""


class InfeasibleBranch(KBWaveError, ValueError):
    """No real solution branch exists for the given roots and kind."""


class UnresolvedBranch(KBWaveError):
    """No candidate branch passed validation; carries the raw candidate."""

    def __init__(self, message, candidate=None):
        super().__init__(message)
        self.candidate = candidate


class BlowUp(KBWaveError):
    """Non-finite values appeared during time evolution."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class OutOfBranchRange(KBWaveError, ValueError):
    """Implicit-relation solve requested outside the branch's reachable range."""
