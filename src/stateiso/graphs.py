"""Simple undirected graphs with edge-list I/O and an exact isomorphism search."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1."""

    n: int
    edges: tuple

    def __post_init__(self):
        norm = []
        seen = set()
        for e in self.edges:
            u, v = int(e[0]), int(e[1])
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError(f"edge ({u},{v}) out of range for n={self.n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    # -- constructors ---------------------------------------------------
    @staticmethod
    def complete(n: int) -> "Graph":
        return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))

    @staticmethod
    def path(n: int) -> "Graph":
        return Graph(n, tuple((i, i + 1) for i in range(n - 1)))

    @staticmethod
    def cycle(n: int) -> "Graph":
        return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))

    @staticmethod
    def star(n: int) -> "Graph":
        return Graph(n, tuple((0, i) for i in range(1, n)))

    # -- I/O --------------------------------------------------------------
    @staticmethod
    def from_edge_list_text(text: str) -> "Graph":
        """First non-comment line: vertex count; then one 'u v' pair per line."""
        lines = [
            ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")
        ]
        if not lines:
            raise GraphError("empty edge-list text")
        try:
            n = int(lines[0])
        except ValueError as exc:
            raise GraphError(f"bad vertex count line {lines[0]!r}") from exc
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise GraphError(f"bad edge line {ln!r}")
            edges.append((int(parts[0]), int(parts[1])))
        return Graph(n, tuple(edges))

    def to_edge_list_text(self) -> str:
        return "\n".join([str(self.n)] + [f"{u} {v}" for u, v in self.edges]) + "\n"

    # -- structure ----------------------------------------------------------
    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=int)
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1
        return a

    def relabel(self, perm) -> "Graph":
        """Vertex i becomes perm[i]."""
        perm = tuple(perm)
        if sorted(perm) != list(range(self.n)):
            raise GraphError(f"not a permutation of range({self.n}): {perm}")
        return Graph(self.n, tuple((perm[u], perm[v]) for u, v in self.edges))

    def degree_sequence(self) -> tuple:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return tuple(sorted(deg))


def _neighbors(g: Graph) -> list:
    adj = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _search_order(adj: list) -> list:
    """Vertices breadth first, each component from its highest degree, so
    that every vertex after the first of its component has a mapped
    neighbour when it is tried."""
    order, seen = [], set()
    for root in sorted(range(len(adj)), key=lambda v: -len(adj[v])):
        if root in seen:
            continue
        seen.add(root)
        queue = [root]
        for u in queue:
            order.append(u)
            for w in sorted(adj[u] - seen, key=lambda v: -len(adj[v])):
                seen.add(w)
                queue.append(w)
    return order


def find_isomorphism(g1: Graph, g2: Graph) -> Optional[tuple]:
    """A relabeling perm with g1.relabel(perm) == g2, or None.

    Exact backtracking search.  g1's vertices are mapped in breadth-first
    order, and each only to an unused g2 vertex of the same degree whose
    adjacency to the vertices mapped so far agrees.
    """
    if (g1.n, len(g1.edges), g1.degree_sequence()) != \
            (g2.n, len(g2.edges), g2.degree_sequence()):
        return None
    adj1, adj2 = _neighbors(g1), _neighbors(g2)
    order = _search_order(adj1)
    perm, used = [None] * g1.n, [False] * g1.n
    tries = [iter(range(g1.n))]       # tries[i]: g2 vertices left for order[i]
    while tries and len(tries) <= g1.n:
        i = len(tries) - 1
        u = order[i]
        if perm[u] is not None:         # backtracking: undo the last choice
            used[perm[u]] = False
            perm[u] = None
        for v in tries[i]:
            if not used[v] and len(adj2[v]) == len(adj1[u]) and all(
                    (perm[w] in adj2[v]) == (w in adj1[u]) for w in order[:i]):
                perm[u], used[v] = v, True
                tries.append(iter(range(g1.n)))
                break
        else:
            tries.pop()
    return tuple(perm) if tries else None


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    return find_isomorphism(g1, g2) is not None
