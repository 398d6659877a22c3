"""Micro-benchmarks of the hot components.

Not paper figures — these keep the substrate's performance honest
(the event loop, Bloom filters, matching, Zipf draws dominate the
simulation's wall time).
"""

import random


from repro.bloom import CountingBloomFilter, elements_mask
from repro.files import FileCatalog, KeywordPool
from repro.overlay import ProviderEntry
from repro.protocols import LocationAwareIndex
from repro.sim import Simulator
from repro.workload import ZipfSampler


def test_perf_engine_events(benchmark):
    """Throughput of schedule + run for 10k events."""

    def run_events():
        sim = Simulator()
        for i in range(10_000):
            sim.schedule(float(i % 97) * 0.01, _noop)
        sim.run()
        return sim.events_processed

    assert benchmark(run_events) == 10_000


def _noop():
    pass


def test_perf_bloom_insert_query(benchmark):
    """1200-bit vector: 150 keyword masks ORed + 600 membership tests,
    each probe hashed once as a query is (one §5.1 index worth of
    keywords)."""
    keywords = [f"kw{i:06d}" for i in range(150)]
    probes = [(f"probe{i:06d}",) for i in range(600)]

    def work():
        vector = elements_mask(keywords, 1200, 4)
        hits = 0
        for probe in probes:
            mask = elements_mask(probe, 1200, 4)
            hits += vector & mask == mask
        return hits

    benchmark(work)


def test_perf_counting_bloom_churn(benchmark):
    """Insert/discard cycles as a response index turns over: 50
    three-keyword filenames cached, then evicted."""
    filenames = [tuple(f"kw{3 * i + j:06d}" for j in range(3)) for i in range(50)]

    def work():
        cbf = CountingBloomFilter(1200, 4)
        for keywords in filenames:
            cbf.add_all(keywords)
        for keywords in filenames:
            for keyword in keywords:
                cbf.discard(keyword)
        return cbf.bit_int()

    assert benchmark(work) == 0


def test_perf_zipf_sampling(benchmark):
    """10k Zipf draws over the paper's 3000-file pool."""
    sampler = ZipfSampler(3000, 1.0, random.Random(1))
    benchmark(lambda: sampler.sample_many(10_000))


def test_perf_catalog_matching(benchmark):
    """Inverted-index query matching over the full §5.1 catalog."""
    catalog = FileCatalog.generate(3000, 3, KeywordPool(9000), random.Random(2))
    queries = [catalog.keywords(fid)[:2] for fid in range(0, 3000, 10)]

    def work():
        return sum(len(catalog.matching_files(q)) for q in queries)

    assert benchmark(work) >= len(queries)


def test_perf_response_index(benchmark):
    """Locaware index updates + lookups at the paper's capacity."""
    entries = [
        ("kw%03d-kw%03d-kw%03d" % (i, i + 1, i + 2), ProviderEntry(i, i % 24))
        for i in range(200)
    ]

    def work():
        index = LocationAwareIndex(50, 5)
        for filename, provider in entries:
            index.put(filename, [provider])
        hits = 0
        for filename, _provider in entries:
            if index.lookup(filename.split("-")[:2]) is not None:
                hits += 1
        return hits

    assert benchmark(work) > 0
