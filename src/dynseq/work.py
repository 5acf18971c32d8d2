"""Work-unit accounting.

All dynamic structures in this package charge an abstract counter instead of
relying on wall-clock time: one unit per data-structure node touched, per
binary-search probe, and so on.  Benchmarks and the acceptance suite read
these counters, which makes the measured update costs machine-independent.
"""

from __future__ import annotations


class WorkMeter:
    """A plain tick counter shared by the structures of one engine instance."""

    __slots__ = ("ticks",)

    def __init__(self) -> None:
        self.ticks = 0


# Meter used by structures created without an explicit one.  Each engine
# creates its own meter, so this only serves ad-hoc / interactive use.
_DEFAULT = WorkMeter()


def default_meter() -> WorkMeter:
    return _DEFAULT
