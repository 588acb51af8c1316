"""The differential oracle builds its tables once per store."""

from sacpdp import oracle
from sacpdp.oracle import oracle_decide
from sacpdp.pdp import activate_store


def fresh(store, version=1):
    return activate_store(store.policy, store.graphs, store.purposes, store.trusted_soas, version)


def test_tables_built_once_per_store(ehealth, canned_requests, monkeypatch):
    store = fresh(ehealth[0])
    built = []

    class Counting(oracle._Tables):
        def __init__(self, store):
            built.append(store)
            super().__init__(store)

    monkeypatch.setattr(oracle, "_Tables", Counting)
    first = canned_requests[0][1]
    oracle_decide(store, first)
    oracle_decide(store, canned_requests[1][1])
    assert len(built) == 1 and built[0] is store

    # a swapped-in store, even an equal one, gets tables of its own
    swapped = fresh(store, version=2)
    again, before = oracle_decide(swapped, first), oracle_decide(store, first)
    assert len(built) == 2 and built[1] is swapped
    assert (again.value, again.matched_rule) == (before.value, before.matched_rule)


def test_tables_go_with_their_store(ehealth, canned_requests):
    copy = fresh(ehealth[0])
    oracle_decide(copy, canned_requests[0][1])
    key = id(copy)
    assert key in oracle._TABLES
    del copy
    assert key not in oracle._TABLES
