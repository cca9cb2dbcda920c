"""Exception types shared across the package."""


class ConergyError(Exception):
    """Base class for all errors raised by this package."""


class NotAPoset(ConergyError):
    """The cover relation contains a cycle."""


class NotALattice(ConergyError):
    """Some pair of elements lacks a unique join or meet."""


class RedundantCover(ConergyError):
    """An input cover pair is implied by transitivity (not a covering pair)."""


class MalformedInput(ConergyError):
    """An input document does not have the expected JSON shape."""


class OutOfRange(ConergyError):
    """An element index is outside the universe 0..n-1."""


class SizeMismatch(ConergyError):
    """Two structures over different universes were combined."""


class BudgetExceeded(ConergyError):
    """A documented size budget was exceeded."""


class DomainError(ConergyError):
    """An argument is outside a formula's domain."""


class NotPrime(ConergyError):
    """An interval expected to be a covering pair is not."""


class NotACongruence(ConergyError):
    """A partition failed the congruence check for the host lattice."""


class NotAnAtom(ConergyError):
    """A congruence expected to be an atom of Con is not."""


class NotDistributive(ConergyError):
    """An operation required a distributive congruence lattice."""


class NoConvergence(ConergyError):
    """The eigensolver exhausted its sweep budget."""
