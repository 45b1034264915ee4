"""Exceptions shared across the package."""


class NotNilpotent(Exception):
    """Lower central series stabilized at a nonzero submodule."""

    def __init__(self, message, stable_generators=None):
        super().__init__(message)
        # generators of the stable submodule, as conformal vectors
        self.stable_generators = stable_generators or []


class AxiomFailure(Exception):
    """A presentation failed the conformal algebra axiom checks."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class TruncationInsufficient(Exception):
    """A truncated-table check needs entries outside the stored ranges."""


class SeriesDivergent(Exception):
    """Lower central series kept descending past the iteration cap."""


class OutsideBasis(Exception):
    """A vector has no coordinates in the issued adapted basis slice."""
