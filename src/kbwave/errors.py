"""Exception types shared across the package."""


class KBWaveError(Exception):
    """Base class for all kbwave errors."""


class InfinitePeriod(KBWaveError):
    """Complete elliptic integral requested at modulus 1 (period diverges)."""


class InvalidConfiguration(KBWaveError, ValueError):
    """Root configuration does not match the requested solution family."""


class InfeasibleBranch(KBWaveError, ValueError):
    """No real solution branch exists for the given roots and kind."""


class Infeasible(InfeasibleBranch):
    """A family member with no real parameters for these zeros: carries the
    kind, the reason (the message) and the computed witness."""

    def __init__(self, kind, reason, witness=None):
        witness = {} if witness is None else witness
        super().__init__(kind, reason, witness)
        self.kind, self.reason, self.witness = kind, reason, witness

    def __str__(self):
        return self.reason


class UnresolvedBranch(KBWaveError):
    """No candidate branch passed validation; carries the raw candidate."""

    def __init__(self, message, candidate=None):
        super().__init__(message)
        self.candidate = candidate


class BlowUp(KBWaveError):
    """Non-finite values appeared in ``evolve``'s integration; t is when."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t


class OutOfBranchRange(KBWaveError, ValueError):
    """Implicit-relation solve requested outside the branch's reachable range."""
