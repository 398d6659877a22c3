# lint-path: src/repro/experiments/fixture_collector_switch.py
# Fixture corpus: RPR007 (collector switches outside sim/gc_pause.py).
# `# expect: CODE` marks each line the linter must flag — nothing else.
import gc
import gc as collector
from gc import freeze


def ad_hoc_pause(work):
    gc.disable()  # expect: RPR007
    try:
        return work()
    finally:
        gc.enable()  # expect: RPR007


def process_global_tuning():
    freeze()  # expect: RPR007
    collector.unfreeze()  # expect: RPR007
    gc.set_threshold(100_000)  # expect: RPR007


def reading_the_collector_is_legal():
    return gc.isenabled(), gc.get_stats(), gc.collect()
