# lint-path: src/repro/protocols/fixture_unguarded_emit.py
# Fixture corpus: RPR003 (tracer.emit not dominated by an enabled check).


def unguarded(network, query):
    network.tracer.emit(network.sim.now, "query.hit", qid=query.qid)  # expect: RPR003


def guard_outside_nested_def_does_not_dominate(network):
    if network.tracer.enabled:

        def callback():
            network.tracer.emit(network.sim.now, "later")  # expect: RPR003

        network.sim.schedule(1.0, callback)


def guarded_directly(network, query):
    if network.tracer.enabled:
        network.tracer.emit(network.sim.now, "query.hit", qid=query.qid)


def guarded_via_local(network):
    tracer = network.tracer
    if tracer.enabled:
        tracer.emit(network.sim.now, "churn.leave", peer=3)


def guarded_by_early_return(tracer, now):
    if not tracer.enabled:
        return
    tracer.emit(now, "query.forward")


def non_tracer_emit_is_legal(signal):
    signal.emit("not a tracer")
