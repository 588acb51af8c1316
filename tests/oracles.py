"""Independent reference computations used to freeze expected values.

Deliberately different algorithms from both the engine and the packaged
reference model: reachability by fixpoint iteration (engine: BFS walks and
ancestor sets built in topological order, reference model: Warren's bitset
Warshall), equivalence by union-find, three-valued logic by
numeric min/max over F<M<T, purposes by an explicit ancestor walk.
"""

from __future__ import annotations

from sacpdp.policy import And, Atom, Empty, Op, Or, scalar_kind


def fixpoint_reachability(nodes, edges) -> dict:
    """reach[a] = every node reachable from a following edges, a included."""
    reach = {n: {n} for n in nodes}
    changed = True
    while changed:
        changed = False
        for a, b in edges:
            before = len(reach[a])
            reach[a] |= reach[b]
            if len(reach[a]) != before:
                changed = True
    return reach


class UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def component(self, x) -> set:
        root = self.find(x)
        return {i for i in self.parent if self.find(i) == root}


def union_find_classes(items, pairs) -> UnionFind:
    uf = UnionFind(items)
    for a, b in pairs:
        uf.union(a, b)
    return uf


# three-valued logic as a numeric lattice: False=0 < Missing=1 < True=2
_F, _M, _T = 0, 1, 2


def _atom_value(atom: Atom, ctx) -> int:
    if atom.attribute not in ctx:
        return _M
    left = ctx[atom.attribute]
    if atom.op is Op.IN:
        ref_kind = scalar_kind(atom.reference[0])
        if scalar_kind(left) != ref_kind:
            raise TypeError(f"kind mismatch: {left!r} vs {atom.reference!r}")
        return _T if left in atom.reference else _F
    right = atom.reference
    if scalar_kind(left) != scalar_kind(right):
        raise TypeError(f"kind mismatch: {left!r} vs {right!r}")
    if atom.op in (Op.GREATER_THAN, Op.GREATER_THAN_OR_EQUAL, Op.LESS_THAN, Op.LESS_THAN_OR_EQUAL):
        if scalar_kind(left) != "number":
            raise TypeError(f"ordering needs numbers: {left!r}")
    table = {
        Op.EQUALS: left == right,
        Op.NOT_EQUALS: left != right,
        Op.GREATER_THAN: left > right if scalar_kind(left) == "number" else None,
        Op.GREATER_THAN_OR_EQUAL: left >= right if scalar_kind(left) == "number" else None,
        Op.LESS_THAN: left < right if scalar_kind(left) == "number" else None,
        Op.LESS_THAN_OR_EQUAL: left <= right if scalar_kind(left) == "number" else None,
    }
    return _T if table[atom.op] else _F


def kleene_value(expr, ctx) -> str:
    """Evaluate with min/max semantics; returns 'true', 'false' or 'missing'.

    Raises TypeError on any kind mismatch anywhere in the expression, even in
    branches a short-circuiting evaluator would skip.
    """

    def walk(node) -> int:
        if isinstance(node, Empty):
            return _T
        if isinstance(node, Atom):
            return _atom_value(node, ctx)
        values = [walk(c) for c in node.children]
        return min(values) if isinstance(node, And) else max(values)

    return {_F: "false", _M: "missing", _T: "true"}[walk(expr)]


def purpose_allowed(requested: str, allowed: str, root: str, parent: dict) -> bool:
    if allowed == "*":
        return True
    chain = [requested]
    while chain[-1] != root:
        chain.append(parent[chain[-1]])
    return allowed in chain
