"""A host speedometer that runs *inside* the timed region.

This sandbox is a 2-vCPU VM whose speed drifts by tens of per cent
within minutes (see the noise note in ``bench/README.md``): process CPU
time tracks wall clock through the drift, so no clock the host offers
separates "the program got slower" from "the host got slower".  The
canary does.  While a timed region is open, an interval timer
interrupts the program every ``PERIOD_S`` and runs one fixed kernel — a
miniature event loop owned by the benchmark (heap of tuples, slotted
objects, dicts, a seeded generator), built to slow down by the same
factor as the simulator when the host does.  Each kernel run is one
sample of how fast the host is *at that moment of the measurement*.

Times are then reported in **reference-host seconds**: measured
seconds times the host's speed over those same seconds, where speed is
the mean kernel rate (kernels per second) over ``REFERENCE_RATE``.  When
the host slows by a factor, the seconds grow and the rate shrinks by
that factor, and the product stays put; on a host that runs the kernel
at the reference rate they are plain seconds.  The seconds the kernel
itself took are subtracted from the timed region.

The kernel and the reference rate are part of the unit of measurement:
they never change.
"""

from __future__ import annotations

import heapq
import random
import signal
import time

PERIOD_S = 0.05
#: Fewest samples that make a speed of their own (a quarter second).
MIN_SAMPLES = 5
#: Kernels per second of the reference host (this sandbox on a quiet
#: minute, sampled inside a 600-peer cell).
REFERENCE_RATE = 500.0
_NODES = 4000
_STEPS = 1500


class _Node:
    __slots__ = ("links", "seen", "hits")

    def __init__(self, links: list[int]) -> None:
        self.links = links
        self.seen: dict[int, float] = {}
        self.hits = 0


class EventKernel:
    """Fixed work: ``_STEPS`` events of a gossip over ``_NODES`` nodes."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self._rng = rng
        self._nodes = [
            _Node([rng.randrange(_NODES) for _ in range(4)]) for _ in range(_NODES)
        ]
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = 0
        self._refill(0.0)

    def _push(self, when: float, node: int, item: int) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (when, self._seq, node, item))

    def _refill(self, now: float) -> None:
        rng = self._rng
        for _ in range(32):
            self._push(now + rng.random(), rng.randrange(_NODES), rng.randrange(50_000))

    def run(self) -> None:
        heap, nodes, rng = self._heap, self._nodes, self._rng
        for _ in range(_STEPS):
            now, _seq, index, item = heapq.heappop(heap)
            node = nodes[index]
            node.hits += 1
            if item not in node.seen or len(heap) <= 32:
                node.seen[item] = now
                if len(node.seen) > 16:
                    del node.seen[next(iter(node.seen))]
                for link in node.links:
                    if len(heap) < 256:
                        self._push(now + rng.random() * 0.01, link, (item + node.hits) % 50_000)
            if len(heap) < 32:
                self._refill(now)


class HostCanary:
    """Samples the kernel on an interval timer while ``active`` is set.

    ``with canary:`` arms the timer for a whole measurement;
    ``run_batch`` raises ``active`` around each timed region and reads
    ``busy_s`` before and after it to subtract the canary's own time.
    """

    def __init__(self) -> None:
        self._kernel = EventKernel()
        self.active = False
        self._sampling = False
        #: seconds spent inside kernel runs so far
        self.busy_s = 0.0
        #: kernel runs per second, one entry per sample
        self.rates: list[float] = []

    def _tick(self, _signum: int, _frame: object) -> None:
        # A tick delivered late (the program sat in one long C call) can
        # be overtaken by the next one while the kernel is still running.
        if not self.active or self._sampling:
            return
        self._sampling = True
        started = time.perf_counter()
        self._kernel.run()
        elapsed = time.perf_counter() - started
        self._sampling = False
        self.busy_s += elapsed
        self.rates.append(1.0 / elapsed)

    def sample(self, count: int = 1) -> None:
        """Take ``count`` samples now, outside any timed region."""
        self.active = True
        for _ in range(count):
            self._tick(0, None)
        self.active = False

    def speed(self, first: int = 0) -> float:
        """Host speed relative to the reference host, from sample ``first`` on."""
        rates = self.rates[first:]
        return sum(rates) / len(rates) / REFERENCE_RATE

    def __enter__(self) -> HostCanary:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc_info: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
