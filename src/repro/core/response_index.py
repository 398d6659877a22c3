# The index lives in ``repro.protocols.index_cache``; this module keeps
# the path the benchmark's layer tracer wraps (``bench/layertrace.py``:
# ``repro.core.response_index.LocationAwareIndex.put`` / ``lookup``).
from ..protocols.index_cache import IndexUpdate, LocationAwareIndex

__all__ = ["IndexUpdate", "LocationAwareIndex"]
