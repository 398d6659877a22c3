"""Exception types raised by the simulation substrate.

Keeping a dedicated hierarchy lets callers distinguish configuration
mistakes (programming errors, caught at build time) from runtime
simulation faults (caught while the event loop is draining).
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for every error raised by :mod:`repro.sim`."""


class ConfigurationError(SimulationError):
    """A configuration value is missing, out of range, or inconsistent."""


class SchedulingError(SimulationError):
    """An event was scheduled at an impossible time (e.g. in the past)."""


class EventLoopError(SimulationError):
    """The event loop was driven incorrectly (e.g. run() re-entered)."""
