"""Public facade for the DeltaZip reproduction."""

from .api import DeltaZip

__all__ = ["DeltaZip"]
