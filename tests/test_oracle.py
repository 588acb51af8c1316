"""The differential oracle builds its tables once per store, from the
declared edges alone."""

import dataclasses
import random

from randgen import random_request_for
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


def test_oracle_reads_no_graph_sets(ehealth, canned_requests):
    # the oracle derives everything from the declared edges: a store whose
    # graphs lost the sets built with them decides exactly as the real one
    store = ehealth[0]
    bare = dataclasses.replace(
        store,
        graphs={
            kind: dataclasses.replace(graph, ancestors={}, rights={}, components={})
            for kind, graph in store.graphs.items()
        },
    )
    assert not any(graph.ancestors or graph.rights or graph.components for graph in bare.graphs.values())
    rng = random.Random(18)
    requests = [request for _, request in canned_requests]
    requests += [random_request_for(rng, store) for _ in range(200)]
    for request in requests:
        assert oracle_decide(bare, request) == oracle_decide(store, request)
