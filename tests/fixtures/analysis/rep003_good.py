"""REP003 good fixture: counts bracketed by the engine's run scope."""
from repro.mining.engines import get_engine


def count_scoped(db, episodes, alphabet_size):
    engine = get_engine("auto")
    with engine:
        return engine.count(db, episodes, alphabet_size)


def count_aliased(db, episodes, alphabet_size):
    with get_engine("sharded").with_profile(None) as eng:
        return eng.count(db, episodes, alphabet_size)


def count_trie_scoped(db, trie, alphabet_size, policy):
    engine = get_engine("position-hop").with_profile(None)
    with engine:
        return engine.count(db, trie, alphabet_size, policy)
