"""Deterministic named random-number streams.

A simulation mixes several independent sources of randomness: topology
construction, workload arrivals, protocol tie-breaking, churn, and so
on.  Drawing them all from one shared ``random.Random`` makes results
fragile — adding a single extra draw in the topology builder would
perturb the workload as well.  :class:`RandomStreams` derives one
independent, reproducible stream per *name* from a single master seed,
so each subsystem owns its randomness:

>>> streams = RandomStreams(42)
>>> topo = streams.stream("topology")
>>> work = streams.stream("workload")
>>> topo.random() != work.random()
True

Requesting the same name twice returns the same stream object, and two
:class:`RandomStreams` built from the same master seed produce
identical draws stream-by-stream.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable

__all__ = ["RandomStreams", "derive_seed"]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name.

    The derivation is a SHA-256 hash of the master seed and the name, so
    it is stable across Python versions and processes (unlike ``hash()``,
    which is salted per-process for strings).
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A factory of independent, named, reproducible random streams.

    Parameters
    ----------
    master_seed:
        Any integer.  Two instances created with the same master seed
        yield identical streams for identical names.
    forbidden:
        Optional set of stream names this factory refuses to create.
        Because every stream is seeded independently from ``(master
        seed, name)``, a factory that never draws the build-time
        streams still yields byte-identical *run-time* streams — the
        guard exists so that code running on an instantiated blueprint
        cannot accidentally consume build-phase randomness (see
        :data:`repro.sim.config.BUILD_STREAM_NAMES`).
    """

    def __init__(
        self, master_seed: int, forbidden: Iterable[str] | None = None
    ) -> None:
        if not isinstance(master_seed, int):
            raise TypeError(f"master_seed must be an int, got {type(master_seed).__name__}")
        self._master_seed = master_seed
        self._forbidden: frozenset[str] = (
            frozenset(forbidden) if forbidden is not None else frozenset()
        )
        self._streams: dict[str, random.Random] = {}

    @property
    def master_seed(self) -> int:
        """The master seed this factory was created with."""
        return self._master_seed

    @property
    def forbidden(self) -> frozenset[str]:
        """Stream names this factory refuses to create."""
        return self._forbidden

    def stream(self, name: str) -> random.Random:
        """Return the stream registered under ``name``, creating it on first use."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        if name in self._forbidden:
            raise ValueError(
                f"stream {name!r} is forbidden on this factory (build-time "
                f"randomness may not be drawn at run time)"
            )
        stream = random.Random(derive_seed(self._master_seed, name))
        self._streams[name] = stream
        return stream

    def names(self) -> list[str]:
        """Names of every stream created so far, in creation order."""
        return list(self._streams)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStreams(master_seed={self._master_seed}, streams={self.names()!r})"
