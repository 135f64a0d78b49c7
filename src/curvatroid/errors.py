"""Exception types and the shared pass/fail result value."""

from __future__ import annotations

from typing import NamedTuple


class CurvatroidError(Exception):
    """Base class for every error raised by this library."""


class EmptyBasisFamily(CurvatroidError):
    """A matroid construction produced or received no bases."""


class RankMismatch(CurvatroidError):
    """Explicit bases do not all have the same cardinality."""


class DegenerateGraph(CurvatroidError):
    """A graph with no edges (or no non-loop edges) has no spanning structure."""


class UnknownElement(CurvatroidError):
    """A label or index outside the ground set."""


class NotABasis(CurvatroidError):
    """A set that is not a member of the basis family."""


class NotAMatroid(CurvatroidError):
    """A basis family that violates the basis exchange axiom."""


class NotAdjacent(CurvatroidError):
    """Two bases whose symmetric difference is not a single exchange."""


class UnbalancedMarginals(CurvatroidError):
    """Transport marginals with different total mass (upstream bug)."""


class InvalidRank(CurvatroidError):
    """A (rank, size) pair outside an operation's domain."""


class TooLarge(CurvatroidError):
    """Enumeration would exceed the supported desk scale."""


class ParseError(CurvatroidError):
    """Malformed input file or argument."""


class UnknownType(ParseError):
    """Matroid file with an unrecognized "type" field."""


class BadRational(ParseError):
    """A rational entry that is not of the form "p" or "p/q"."""


class InvalidBasisArgument(CurvatroidError):
    """A --s/--t argument that is not a basis, or a pair that is not adjacent."""


class ValidationResult(NamedTuple):
    """Outcome of a check; failure is a value carrying a witness, not an exception.

    Truth is ok, not the tuple's length: `if not check:` reads a failure.
    """

    ok: bool
    detail: str = ""
    witness: tuple = ()

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passed(cls, detail: str = "") -> "ValidationResult":
        return cls(True, detail)

    @classmethod
    def failed(cls, detail: str, witness: tuple = ()) -> "ValidationResult":
        return cls(False, detail, witness)
