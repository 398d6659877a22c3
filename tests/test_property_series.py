"""The figure series against the accumulator they replaced.

:func:`repro.analysis.collectors.collect_series` computes each series
in one pass; ``tests/reference_series.py`` records one query at a
time and computes the means on read.  For any outcome list — indices
out of order, repeated or sparse, failures, successes without a
measured distance — both must give the same floats bit for bit
(compared by ``repr``, so two NaNs match and ``0.0`` / ``-0.0`` do
not), and a run stored as a document and restored must hold the same
values again.
"""

import json
import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_series import reference_series

from repro.analysis import collect_series, summarize_outcomes
from repro.analysis.persistence import load_run_document, run_to_document
from repro.protocols import QueryOutcome

FIELDS = ("download_distance", "search_traffic", "success_rate")


def outcome(query_id, index, success, distance, messages):
    return QueryOutcome(
        query_id=query_id,
        index=index,
        origin=0,
        target_file=0,
        keywords=("kw",),
        issued_at=0.0,
        success=success,
        download_distance_ms=distance,
        messages=messages,
        responses=0,
        provider=None,
        downloaded_file=None,
    )


#: (index, success, distance, messages): indices drawn independently,
#: so out of order, repeated and sparse; a success may lack a distance
#: and a failure may carry one (which no series may count).
outcomes = st.lists(
    st.tuples(
        st.integers(1, 400),
        st.booleans(),
        st.one_of(st.just(math.nan), st.floats(0.0, 1e4)),
        st.integers(0, 5000),
    ),
    max_size=60,
).map(lambda rows: [outcome(i, *row) for i, row in enumerate(rows)])


def exact(values):
    return [repr(float(v)) for v in values]


def assert_matches_reference(series, reference):
    assert series.name == reference.name
    assert series.bucket_width == reference.bucket_width
    assert list(series.edges) == reference.bucket_edges()
    assert exact(series.windowed) == exact(reference.windowed_means())
    assert exact(series.cumulative) == exact(reference.cumulative_means())
    assert series.sample_count == reference.sample_count
    assert repr(series.overall) == repr(reference.overall_mean())


@settings(max_examples=300, deadline=None)
@given(outcomes=outcomes, width=st.integers(1, 50))
def test_collect_series_equals_the_accumulator_bit_for_bit(outcomes, width):
    collected = collect_series(outcomes, width)
    reference = reference_series(outcomes, width)
    for field in FIELDS:
        assert_matches_reference(getattr(collected, field), reference[field])


@settings(max_examples=150, deadline=None)
@given(outcomes=outcomes, width=st.integers(1, 50))
def test_a_stored_run_restores_the_same_series(outcomes, width):
    run = SimpleNamespace(
        summary=summarize_outcomes(outcomes),
        series=collect_series(outcomes, width),
        locally_satisfied=0,
        sim_time_s=1.0,
        events_processed=len(outcomes),
    )
    stored = json.loads(json.dumps(run_to_document(run)))
    restored = load_run_document("p", stored)
    reference = reference_series(outcomes, width)
    for field in FIELDS:
        assert_matches_reference(getattr(restored.series, field), reference[field])
    assert run_to_document(restored) == stored
