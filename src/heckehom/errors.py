"""Shared exception types for the heckehom package."""


class ParseError(ValueError):
    """A textual or JSON representation could not be decoded."""


class OracleCapError(ValueError):
    """A brute-force computation would exceed the configured degree cap."""


class StraighteningError(RuntimeError):
    """An invariant of the rewriting engine failed: a rewrite did not
    increase the weight, or an identity split's coefficient was not 1."""
