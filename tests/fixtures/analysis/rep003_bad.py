"""REP003 bad fixture: engine counts outside the run scope."""
from repro.mining.engines import REGISTRY, get_engine


def count_unscoped(db, episodes, alphabet_size):
    engine = get_engine("auto")
    return engine.count(db, episodes, alphabet_size)  # scope never entered


def count_chained(db, episodes, alphabet_size):
    return REGISTRY.get("vector-sweep").count(db, episodes, alphabet_size)

