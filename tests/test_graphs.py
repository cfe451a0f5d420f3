import itertools
import random

import networkx as nx
import pytest

from stateiso.graphs import Graph, GraphError, find_isomorphism


class TestGraph:
    def test_edge_normalization(self):
        g = Graph(3, ((2, 0), (1, 0)))
        assert g.edges == ((0, 1), (0, 2))

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 0),))

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, ((0, 2),))

    def test_constructors(self):
        assert len(Graph.complete(5).edges) == 10
        assert len(Graph.path(5).edges) == 4
        assert len(Graph.cycle(5).edges) == 5
        assert Graph.star(4).degree_sequence() == (1, 1, 1, 3)

    def test_edge_list_roundtrip(self):
        g = Graph.cycle(4)
        assert Graph.from_edge_list_text(g.to_edge_list_text()) == g

    def test_edge_list_comments(self):
        g = Graph.from_edge_list_text("# a graph\n3\n0 1\n# middle\n1 2\n")
        assert g == Graph.path(3)

    def test_edge_list_errors(self):
        with pytest.raises(GraphError):
            Graph.from_edge_list_text("")
        with pytest.raises(GraphError):
            Graph.from_edge_list_text("x\n0 1\n")
        with pytest.raises(GraphError):
            Graph.from_edge_list_text("3\n0 1 2\n")
        with pytest.raises(GraphError, match="negative vertex count"):
            Graph.from_edge_list_text("-3\n")

    def test_relabel(self):
        g = Graph.path(3)
        assert g.relabel((2, 1, 0)) == g
        assert g.relabel((1, 0, 2)) == Graph(3, ((0, 1), (0, 2)))


class TestIsomorphism:
    def test_relabeled_pair(self):
        g1 = Graph.path(5)
        perm = (3, 0, 4, 1, 2)
        g2 = g1.relabel(perm)
        found = find_isomorphism(g1, g2)
        assert found is not None
        assert g1.relabel(found) == g2

    def test_non_isomorphic_same_degrees(self):
        # C6 vs two triangles: same degree sequence, not isomorphic
        c6 = Graph.cycle(6)
        tri2 = Graph(6, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)))
        assert c6.degree_sequence() == tri2.degree_sequence()
        assert find_isomorphism(c6, tri2) is None

    def test_size_mismatch(self):
        assert find_isomorphism(Graph.path(3), Graph.path(4)) is None

    def test_empty_graph(self):
        assert find_isomorphism(Graph(0, ()), Graph(0, ())) == ()


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _agrees_with_networkx(g1, g2):
    perm = find_isomorphism(g1, g2)
    assert (perm is not None) == nx.is_isomorphic(_nx(g1), _nx(g2)), (g1, g2)
    if perm is not None:
        assert g1.relabel(perm) == g2


class TestAgainstNetworkx:
    """The backtracking search against networkx's VF2, an independent
    implementation."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_pairs(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        graphs = [Graph(n, tuple(e for e, keep in zip(pairs, bits) if keep))
                  for bits in itertools.product((0, 1), repeat=len(pairs))]
        for g1, g2 in itertools.product(graphs, repeat=2):
            _agrees_with_networkx(g1, g2)

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_random_pairs(self, n):
        # half the pairs are relabelings, half independent draws of one density
        rnd = random.Random(n)
        pairs = list(itertools.combinations(range(n), 2))
        for t in range(800):
            density = rnd.random()
            g1 = Graph(n, tuple(e for e in pairs if rnd.random() < density))
            if t % 2:
                perm = list(range(n))
                rnd.shuffle(perm)
                g2 = g1.relabel(perm)
            else:
                g2 = Graph(n, tuple(e for e in pairs if rnd.random() < density))
            _agrees_with_networkx(g1, g2)
