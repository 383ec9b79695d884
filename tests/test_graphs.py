import itertools
import math

import numpy as np
import pytest

import maxfilt as mf
from maxfilt.graphs import (ColorCoding, TreeTemplate, WeightedGraph,
                            brute_force_tree_filter, coding_size,
                            graph_isomorphism_certificate, injection_value,
                            is_rainbow_family, make_color_coding, mf_tree_dp,
                            validate_post_order)


def random_graph(n, rng, integer=False):
    if integer:
        upper = rng.integers(-3, 4, size=(n, n))
    else:
        upper = rng.standard_normal((n, n))
    adj = np.triu(upper, 1)
    return WeightedGraph(adj + adj.T)


def random_tree(k, rng, integer=False):
    # Random recursive tree: attach each vertex to a later one; post-order by
    # construction.
    adj = np.zeros((k, k))
    for u in range(k - 1):
        parent = int(rng.integers(u + 1, k))
        w = int(rng.integers(-3, 4)) if integer else float(rng.standard_normal())
        if integer and w == 0:
            w = 1
        elif not integer and w == 0.0:
            w = 0.5
        adj[u, parent] = adj[parent, u] = w
    return TreeTemplate(adj)


class TestColorCoding:
    def test_trivial_instance(self):
        coding = make_color_coding(1, 1, rng_seed=0)
        assert coding.size == 1
        assert coding.colorings.shape == (1, 1)

    def test_size_formula(self):
        # ceil(2 e^2 log 4) colorings for four vertices and two colors
        assert coding_size(4, 2) == 21
        assert make_color_coding(4, 2, rng_seed=0).size == 21
        assert coding_size(4, 2) == math.ceil(2 * math.exp(2) * math.log(4))

    def test_verified_rainbow_property(self):
        coding = make_color_coding(6, 3, rng_seed=1)
        assert is_rainbow_family(coding.colorings, 6, 3)

    def test_multiplier_scales_size(self):
        base = make_color_coding(8, 2, rng_seed=2)
        double = make_color_coding(8, 2, rng_seed=2, multiplier=2.0)
        assert double.size == coding_size(8, 2, 2.0) >= 2 * base.size - 1

    def test_bad_shape_rejected(self):
        with pytest.raises(mf.ValidationError):
            make_color_coding(2, 3, rng_seed=0)


class TestPostOrder:
    def test_single_edge(self):
        assert validate_post_order(TreeTemplate.path(2)) == [(0, 1)]

    def test_star_with_late_center(self):
        adj = np.zeros((4, 4))
        for leaf in range(3):
            adj[leaf, 3] = adj[3, leaf] = 1.0
        assert validate_post_order(TreeTemplate(adj)) == [(0, 3), (1, 3), (2, 3)]

    def test_bad_labeling_rejected(self):
        # path with the middle vertex labeled first: vertex 0 has two later
        # neighbors, so the labeling is not post-order
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[0, 2] = adj[2, 0] = 1.0
        with pytest.raises(mf.ValidationError):
            TreeTemplate(adj)

    def test_disconnected_rejected(self):
        adj = np.zeros((4, 4))
        adj[0, 1] = adj[1, 0] = 1.0
        with pytest.raises(mf.ValidationError):
            TreeTemplate(adj)


class TestTreeFilter:
    def test_single_edge_reads_max_entry(self):
        rng = np.random.default_rng(3)
        tree = TreeTemplate.path(2)
        graph = random_graph(5, rng)
        coding = make_color_coding(5, 2, rng_seed=4)
        expected = brute_force_tree_filter(tree, graph)
        assert expected == pytest.approx(2.0 * graph.adj.max())
        assert mf_tree_dp(tree, graph, coding).value == pytest.approx(expected, abs=1e-9)

    def test_path4_separates_two_triangles_from_hexagon(self):
        tree = TreeTemplate.path(4)
        hexagon = WeightedGraph.cycle(6)
        two_triangles = WeightedGraph.disjoint_union(WeightedGraph.cycle(3),
                                                     WeightedGraph.cycle(3))
        # frozen values from the injection oracle: the path lies along the
        # hexagon (3 unit edges) but only fits 2 edges inside a triangle pair
        assert brute_force_tree_filter(tree, hexagon) == pytest.approx(6.0)
        assert brute_force_tree_filter(tree, two_triangles) == pytest.approx(4.0)
        coding = make_color_coding(6, 4, rng_seed=5)
        v_hex = mf_tree_dp(tree, hexagon, coding).value
        v_tri = mf_tree_dp(tree, two_triangles, coding).value
        assert v_hex == pytest.approx(6.0, abs=1e-9)
        assert v_tri == pytest.approx(4.0, abs=1e-9)
        assert v_hex != v_tri

    def test_planted_tree_recovered(self):
        rng = np.random.default_rng(6)
        tree = random_tree(3, rng)
        tree = TreeTemplate(np.abs(tree.adj))        # positive weights
        n = 6
        adj = np.full((n, n), -10.0)
        np.fill_diagonal(adj, 0.0)
        adj = (adj + adj.T) / 2
        adj[:3, :3] = tree.adj                       # plant the tree on vertices 0..2
        graph = WeightedGraph(adj)
        expected = brute_force_tree_filter(tree, graph)
        assert expected == pytest.approx(2.0 * float(np.sum(tree.adj[np.triu_indices(3, 1)] ** 2)))
        coding = make_color_coding(n, 3, rng_seed=7)
        res = mf_tree_dp(tree, graph, coding)
        assert res.value == pytest.approx(expected, abs=1e-9)

    def test_dp_witness_realizes_value(self):
        rng = np.random.default_rng(8)
        tree = random_tree(3, rng)
        graph = random_graph(6, rng)
        coding = make_color_coding(6, 3, rng_seed=9)
        res = mf_tree_dp(tree, graph, coding)
        sigma = res.witnesses[0]
        assert len(set(sigma.tolist())) == tree.k
        assert injection_value(tree, graph, sigma) == pytest.approx(res.value, abs=1e-9)

    @pytest.mark.parametrize("k,n", [(2, 3), (2, 5), (3, 5), (3, 6), (4, 6)])
    def test_dp_matches_injection_oracle(self, k, n):
        rng = np.random.default_rng(10 * k + n)
        for trial in range(10):
            tree = random_tree(k, rng)
            graph = random_graph(n, rng)
            coding = make_color_coding(n, k, rng_seed=int(rng.integers(2 ** 31)))
            assert mf_tree_dp(tree, graph, coding).value == pytest.approx(
                brute_force_tree_filter(tree, graph), abs=1e-9)

    def test_integer_instances_exact(self):
        rng = np.random.default_rng(11)
        for trial in range(10):
            tree = random_tree(3, rng, integer=True)
            graph = random_graph(6, rng, integer=True)
            coding = make_color_coding(6, 3, rng_seed=trial)
            assert mf_tree_dp(tree, graph, coding).value == \
                brute_force_tree_filter(tree, graph)

    def test_conjugation_invariance(self):
        rng = np.random.default_rng(12)
        tree = random_tree(3, rng)
        graph = random_graph(7, rng)
        perm = rng.permutation(7)
        conj = WeightedGraph(graph.adj[np.ix_(perm, perm)])
        c1 = make_color_coding(7, 3, rng_seed=13)
        c2 = make_color_coding(7, 3, rng_seed=14)
        assert mf_tree_dp(tree, graph, c1).value == pytest.approx(
            mf_tree_dp(tree, conj, c2).value, abs=1e-9)

    def test_template_scaling_doubles_value(self):
        rng = np.random.default_rng(15)
        tree = random_tree(3, rng)
        tree = TreeTemplate(np.abs(tree.adj))
        doubled = TreeTemplate(2.0 * tree.adj)
        graph = WeightedGraph(np.abs(random_graph(6, rng).adj))
        coding = make_color_coding(6, 3, rng_seed=16)
        v1 = mf_tree_dp(tree, graph, coding).value
        v2 = mf_tree_dp(doubled, graph, coding).value
        assert v2 == pytest.approx(2.0 * v1, rel=1e-12)

    def test_self_value_is_frobenius_norm_squared(self):
        rng = np.random.default_rng(17)
        tree = random_tree(4, rng)
        graph = WeightedGraph(tree.adj)
        assert brute_force_tree_filter(tree, graph) == pytest.approx(
            float(np.sum(tree.adj ** 2)), rel=1e-12)

    def test_single_edge_vs_weighted_triangle(self):
        tree = TreeTemplate.path(2)
        adj = np.zeros((3, 3))
        adj[0, 1] = adj[1, 0] = 1.0
        adj[0, 2] = adj[2, 0] = 2.0
        adj[1, 2] = adj[2, 1] = 3.0
        assert brute_force_tree_filter(tree, WeightedGraph(adj)) == pytest.approx(6.0)

    def test_adversarial_weight_patterns(self):
        # zeros, duplicates, all-negative graphs, and the tight n == k case
        rng = np.random.default_rng(99)
        for trial in range(40):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 8))
            kind = trial % 4
            if kind == 0:
                tree = TreeTemplate.path(k)                       # unit weights
            elif kind == 1:
                tree = random_tree(k, rng, integer=True)
            else:
                tree = TreeTemplate(np.sign(random_tree(k, rng).adj) * -1.0)
            if kind == 3:
                n = k                                             # tight case
            vals = rng.choice([-2.0, 0.0, 0.0, 1.0, 1.0], size=(n, n))
            adj = np.triu(vals, 1)
            graph = WeightedGraph(adj + adj.T)
            coding = make_color_coding(n, k, rng_seed=trial)
            assert mf_tree_dp(tree, graph, coding).value == pytest.approx(
                brute_force_tree_filter(tree, graph), abs=1e-9)

    def test_ops_scale_linearithmically(self):
        rng = np.random.default_rng(18)
        tree = random_tree(3, rng)
        normalized = []
        for n in (8, 16, 32):
            graph = random_graph(n, rng)
            coding = make_color_coding(n, 3, rng_seed=n)
            _, stats = mf_tree_dp(tree, graph, coding, return_stats=True)
            normalized.append(stats["pairs"] / (n ** 2 * math.log(n)))
        assert max(normalized) / min(normalized) < 2.0


def branching_tree(k, rng, integer=False):
    """Random recursive tree, redrawn until some vertex has degree >= 3 when
    k >= 4 (for k <= 3 every tree is a path)."""
    while True:
        tree = random_tree(k, rng, integer)
        if k < 4 or (np.count_nonzero(tree.adj, axis=1) >= 3).any():
            return tree


def permutation_dp_value(tree, graph, coding):
    """Reference: the color-coding DP run once per color-to-tree-vertex
    permutation, each tree vertex confined to the graph vertices of its color
    (k! passes of dense (N, n, n) steps)."""
    a, b = tree.adj, graph.adj
    k, n = tree.k, graph.n
    edges = validate_post_order(tree)
    colorings = coding.colorings
    best = -np.inf
    for pi in itertools.permutations(range(k)):
        tv = np.asarray(pi)[colorings]
        masks = [tv == u for u in range(k)]
        ell = np.zeros((colorings.shape[0], n))
        for u, pu in edges:
            cand = np.where(masks[u][:, None, :], ell[:, None, :], -np.inf) \
                + a[u, pu] * np.where(masks[u][:, None, :], b.T[None, :, :], 0.0)
            ell = np.where(masks[pu], ell + cand.max(axis=2), ell)
        best = max(best, float(np.where(masks[k - 1], ell, -np.inf).max()))
    return 2.0 * best


class TestColorSetDP:
    @pytest.mark.parametrize("k,n", [(k, n) for k in range(2, 6) for n in range(k, 9)])
    def test_matches_brute_force_on_branching_trees(self, k, n):
        rng = np.random.default_rng(100 * k + n)
        for trial in range(4):
            integer = trial % 2 == 0
            tree = branching_tree(k, rng, integer)
            if integer:
                # weights in {-1, 0, 1, 2}: many placements tie at the optimum
                adj = np.triu(rng.integers(-1, 3, size=(n, n)).astype(float), 1)
                graph = WeightedGraph(adj + adj.T)
            else:
                graph = random_graph(n, rng)
            coding = make_color_coding(n, k, rng_seed=int(rng.integers(2 ** 31)))
            res = mf_tree_dp(tree, graph, coding)
            want = brute_force_tree_filter(tree, graph)
            sigma = res.witnesses[0]
            assert len(set(sigma.tolist())) == k
            assert sigma.min() >= 0 and sigma.max() < n
            if integer:
                assert res.value == want
                assert injection_value(tree, graph, sigma) == res.value
            else:
                assert res.value == pytest.approx(want, abs=1e-9)
                assert injection_value(tree, graph, sigma) == pytest.approx(res.value, abs=1e-9)

    @pytest.mark.parametrize("k,n", [(4, 16), (5, 12), (3, 40)])
    def test_matches_permutation_dp_beyond_brute_force(self, k, n):
        # Both programs form every placement's sum in the same order and take
        # exact maxima, so the values agree bit for bit.
        rng = np.random.default_rng(7 * k + n)
        tree = branching_tree(k, rng)
        graph = random_graph(n, rng)
        coding = make_color_coding(n, k, rng_seed=k + n)
        res = mf_tree_dp(tree, graph, coding)
        assert res.value == permutation_dp_value(tree, graph, coding)
        sigma = res.witnesses[0]
        assert len(set(sigma.tolist())) == k
        assert injection_value(tree, graph, sigma) == pytest.approx(res.value, rel=1e-12)

    def test_stats_count_color_sets(self):
        rng = np.random.default_rng(21)
        graph = random_graph(9, rng)
        coding = make_color_coding(9, 4, rng_seed=22)
        _, stats = mf_tree_dp(TreeTemplate.path(4), graph, coding, return_stats=True)
        # subtrees of sizes 1, 2, 3 below the root: C(4,1) + C(4,2) + C(4,3) subsets
        assert stats == {"pairs": 14 * coding.size * 9 * 9, "colorings": coding.size,
                         "color_sets": 14}

    def test_single_vertex_tree(self):
        graph = random_graph(3, np.random.default_rng(23))
        res = mf_tree_dp(TreeTemplate(np.zeros((1, 1))), graph,
                         make_color_coding(3, 1, rng_seed=24))
        assert res.value == 0.0
        assert res.witnesses[0].tolist() == [0]

    def test_unusable_coding_rejected(self):
        graph = random_graph(4, np.random.default_rng(25))
        coding = ColorCoding(n=4, k=2, colorings=np.zeros((3, 4), dtype=int))
        with pytest.raises(mf.ValidationError):
            mf_tree_dp(TreeTemplate.path(2), graph, coding)


def dense_color_set_dp(a, b, edges, colorings, k, history=None):
    """Reference: the color-set DP with the dense max-plus step, all n terms
    ``child[:, y] + w[y, x]`` of every column taken one child vertex at a
    time."""
    n = colorings.shape[1]
    leaf = {1 << c: np.where(colorings == c, 0.0, -np.inf) for c in range(k)}
    tables = [leaf] * k
    color_sets = 0
    for u, pu in edges:
        w = a[u, pu] * b
        merged = {}
        for t, child in tables[u].items():
            best = child[:, 0, None] + w[0]
            for y in range(1, n):
                np.maximum(best, child[:, y, None] + w[y], out=best)
            for s, part in tables[pu].items():
                if s & t:
                    continue
                r = s | t
                if r in merged:
                    np.maximum(merged[r], part + best, out=merged[r])
                else:
                    merged[r] = part + best
        if history is not None:
            history.append((tables[u], tables[pu]))
        color_sets += len(tables[u])
        tables[pu] = merged
    return tables[k - 1][(1 << k) - 1], color_sets


def sparse_graph(n, rng, p=0.3, negative=0, isolated=0):
    """Weights in [0.1, 1) on edges drawn with probability ``p`` (as in the
    benchmark's graphs), ``negative`` of the edges made negative, and the
    last ``isolated`` vertices left without edges."""
    upper = np.triu((rng.random((n, n)) < p) * rng.uniform(0.1, 1.0, size=(n, n)), 1)
    upper[n - isolated:] = upper[:, n - isolated:] = 0.0
    us, vs = np.nonzero(upper)
    flip = rng.choice(len(us), size=min(negative, len(us)), replace=False)
    upper[us[flip], vs[flip]] *= -1.0
    return WeightedGraph(upper + upper.T)


class TestSparseMaxPlusStep:
    """The sparse max-plus step keeps only the terms that can decide a
    maximum; root tables, values and witnesses must equal the dense step's
    bit for bit, sign bits included."""

    @staticmethod
    def assert_same_as_dense(tree, graph, coding, monkeypatch):
        from maxfilt import graphs

        edges = validate_post_order(tree)
        args = (tree.adj, graph.adj, edges, coding.colorings, tree.k)
        got, sets = graphs._color_set_dp(*args)
        want, want_sets = dense_color_set_dp(*args)
        assert sets == want_sets
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))
        res = mf_tree_dp(tree, graph, coding)
        with monkeypatch.context() as m:
            m.setattr(graphs, "_color_set_dp", dense_color_set_dp)
            ref = mf_tree_dp(tree, graph, coding)
        assert res.value == ref.value
        assert math.copysign(1.0, res.value) == math.copysign(1.0, ref.value)
        np.testing.assert_array_equal(res.witnesses[0], ref.witnesses[0])

    @pytest.mark.parametrize("k,n", [(2, 6), (3, 12), (4, 16), (5, 10)])
    def test_sparse_non_negative_graphs(self, k, n, monkeypatch):
        rng = np.random.default_rng(600 + 10 * k + n)
        for trial in range(3):
            tree = TreeTemplate(np.abs(branching_tree(k, rng).adj))
            graph = sparse_graph(n, rng)
            coding = make_color_coding(n, k, rng_seed=trial)
            self.assert_same_as_dense(tree, graph, coding, monkeypatch)

    @pytest.mark.parametrize("k,n", [(2, 6), (3, 12), (4, 16)])
    def test_negative_tree_edge_on_non_negative_graph(self, k, n, monkeypatch):
        rng = np.random.default_rng(700 + 10 * k + n)
        for trial in range(3):
            adj = np.abs(branching_tree(k, rng).adj)
            adj[0, 1:] *= -1.0                  # the edge from leaf 0 to its parent
            adj[1:, 0] *= -1.0
            graph = sparse_graph(n, rng, isolated=trial)
            coding = make_color_coding(n, k, rng_seed=trial)
            self.assert_same_as_dense(TreeTemplate(adj), graph, coding, monkeypatch)

    @pytest.mark.parametrize("k,n", [(3, 8), (4, 16), (5, 12)])
    def test_graphs_with_a_few_negative_edges(self, k, n, monkeypatch):
        # Mixed columns: those touching a negative edge keep all n terms.
        rng = np.random.default_rng(800 + 10 * k + n)
        for trial in range(3):
            tree = branching_tree(k, rng, integer=trial == 1)
            graph = sparse_graph(n, rng, p=0.5, negative=1 + trial)
            coding = make_color_coding(n, k, rng_seed=trial)
            self.assert_same_as_dense(tree, graph, coding, monkeypatch)

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 9), (4, 12)])
    def test_isolated_vertices(self, k, n, monkeypatch):
        # Columns with no positive weight take the child's row maximum alone;
        # the empty graph has only such columns.
        rng = np.random.default_rng(900 + 10 * k + n)
        for isolated in (1, n // 2, n):
            tree = branching_tree(k, rng)
            graph = sparse_graph(n, rng, p=0.6, isolated=isolated)
            coding = make_color_coding(n, k, rng_seed=isolated)
            self.assert_same_as_dense(tree, graph, coding, monkeypatch)


class TestIsomorphismCertificate:
    def test_conjugated_copy(self):
        rng = np.random.default_rng(19)
        graph = random_graph(6, rng)
        perm = rng.permutation(6)
        conj = WeightedGraph(graph.adj[np.ix_(perm, perm)])
        assert graph_isomorphism_certificate(graph, conj) == "isomorphic"

    def test_hexagon_vs_two_triangles(self):
        hexagon = WeightedGraph.cycle(6)
        two_triangles = WeightedGraph.disjoint_union(WeightedGraph.cycle(3),
                                                     WeightedGraph.cycle(3))
        assert graph_isomorphism_certificate(hexagon, two_triangles) == "non-isomorphic"

    def test_norm_mismatch(self):
        g1 = WeightedGraph.cycle(5, weight=1.0)
        g2 = WeightedGraph.cycle(5, weight=2.0)
        assert graph_isomorphism_certificate(g1, g2) == "non-isomorphic"


class TestSerialization:
    def test_roundtrip(self):
        rng = np.random.default_rng(20)
        graph = random_graph(5, rng)
        clone = WeightedGraph.from_dict(graph.to_dict())
        np.testing.assert_allclose(clone.adj, graph.adj)

    def test_invalid_adjacency_rejected(self):
        with pytest.raises(mf.ValidationError):
            WeightedGraph(np.array([[0.0, 1.0], [2.0, 0.0]]))
        with pytest.raises(mf.ValidationError):
            WeightedGraph(np.array([[1.0, 0.0], [0.0, 0.0]]))
