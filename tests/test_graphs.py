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


def first_rainbow_reference(colorings, k):
    """Reference: the first coloring rainbow on each k-subset, subset by
    subset, and whether every k-subset has one."""
    kept, covered = set(), True
    for subset in itertools.combinations(range(colorings.shape[1]), k):
        colors = np.sort(colorings[:, list(subset)], axis=1)
        rainbow = np.flatnonzero((colors == np.arange(k)).all(axis=1))
        if len(rainbow):
            kept.add(int(rainbow[0]))
        else:
            covered = False
    return sorted(kept), covered


def rainbow_on(subset, n, k, spoiled):
    """A coloring rainbow on ``subset`` but, unless the two are equal, not on
    ``spoiled``: the vertices of ``spoiled`` outside ``subset`` repeat a color
    of ``subset`` (or all take color 0)."""
    coloring = np.zeros(n, dtype=int)
    coloring[list(subset)] = np.arange(k)
    shared = [v for v in spoiled if v in subset]
    coloring[[v for v in spoiled if v not in subset]] = coloring[shared[0]] if shared else 0
    return coloring


def one_subset_uncovered(n, k, rng, size=70):
    """``size`` random colorings none rainbow on {0, ..., k-1}, followed by a
    coloring for each other k-subset they leave uncovered.  The first 64 use
    k - 1 colors, so the first 64-coloring word covers nothing."""
    spoiled = tuple(range(k))
    colorings = rng.integers(0, k, size=(size, n))
    colorings[:64] = rng.integers(0, k - 1, size=(64, n))
    on_spoiled = colorings[:, :k]
    rainbow = (np.sort(on_spoiled, axis=1) == np.arange(k)).all(axis=1)
    on_spoiled[rainbow, 1] = on_spoiled[rainbow, 0]
    extra = [rainbow_on(subset, n, k, spoiled)
             for subset in itertools.combinations(range(n), k)
             if subset != spoiled and not any(
                 len(set(row[list(subset)])) == k for row in colorings)]
    return np.vstack([colorings] + extra) if extra else colorings


def whole_family(colorings, k):
    return np.arange(len(colorings)), True


def calls_of(monkeypatch, name):
    """Wrap ``graphs.<name>`` for the rest of the test; the returned list
    gains one entry per call."""
    from maxfilt import graphs

    calls, func = [], getattr(graphs, name)
    monkeypatch.setattr(graphs, name, lambda *args: calls.append(args) or func(*args))
    return calls


class TestCoveringSubFamily:
    """mf_tree_dp runs on the colorings that are the first rainbow one for
    some k-subset; values, sign bits and witnesses must be the whole
    family's."""

    @pytest.mark.parametrize("k", range(1, 7))
    @pytest.mark.parametrize("size", [1, 40, 64, 65, 150])
    def test_kept_set_matches_reference(self, k, size):
        from maxfilt import graphs

        rng = np.random.default_rng(1000 * k + size)
        for n in (k, k + 2, k + 5):
            colorings = rng.integers(0, k, size=(size, n))
            kept, covered = graphs._first_rainbow(colorings, k)
            assert (kept.tolist(), covered) == first_rainbow_reference(colorings, k)
            assert is_rainbow_family(colorings, n, k) == covered

    @pytest.mark.parametrize("k", range(1, 7))
    def test_all_zero_family(self, k):
        from maxfilt import graphs

        colorings = np.zeros((65, k + 3), dtype=int)
        kept, covered = graphs._first_rainbow(colorings, k)
        assert (kept.tolist(), covered) == first_rainbow_reference(colorings, k)
        assert (kept.tolist(), covered) == (([0], True) if k == 1 else ([], False))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_colors_outside_range_never_rainbow(self, k, monkeypatch):
        # The DP never places a tree vertex on a graph vertex colored -1 or k.
        from maxfilt import graphs

        rng = np.random.default_rng(1050 + k)
        n = k + 3
        colorings = rng.integers(-1, k + 1, size=(90, n))
        kept, covered = graphs._first_rainbow(colorings, k)
        assert (kept.tolist(), covered) == first_rainbow_reference(colorings, k)
        coding = ColorCoding(n=n, k=k, colorings=colorings)
        self.assert_same_as_whole_family(branching_tree(k, rng), random_graph(n, rng), coding,
                                         monkeypatch)

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 6), (4, 7), (5, 8), (6, 9)])
    def test_one_subset_uncovered(self, k, n):
        from maxfilt import graphs

        rng = np.random.default_rng(1100 + k)
        colorings = one_subset_uncovered(n, k, rng)
        missed = [s for s in itertools.combinations(range(n), k)
                  if not (np.sort(colorings[:, list(s)], axis=1) == np.arange(k)).all(axis=1).any()]
        assert missed == [tuple(range(k))]
        kept, covered = graphs._first_rainbow(colorings, k)
        assert (kept.tolist(), covered) == first_rainbow_reference(colorings, k)
        assert not covered and not is_rainbow_family(colorings, n, k)
        assert kept.min() >= 64

    @staticmethod
    def assert_same_as_whole_family(tree, graph, coding, monkeypatch):
        # The cover is the coding's, found on first use: the reference runs
        # on a fresh coding of the same family, whose cover the patch makes
        # the whole family.
        from maxfilt import graphs

        res = mf_tree_dp(tree, graph, coding)
        with monkeypatch.context() as m:
            m.setattr(graphs, "_first_rainbow", whole_family)
            fresh = ColorCoding(n=coding.n, k=coding.k, colorings=coding.colorings)
            ref = mf_tree_dp(tree, graph, fresh)
        np.testing.assert_array_equal(fresh.cover[0], np.arange(coding.size))
        assert res.value == ref.value
        assert math.copysign(1.0, res.value) == math.copysign(1.0, ref.value)
        np.testing.assert_array_equal(res.witnesses[0], ref.witnesses[0])
        return res

    @pytest.mark.parametrize("k,n", [(2, 6), (3, 7), (4, 8), (5, 8)])
    def test_unit_paths_tie(self, k, n, monkeypatch):
        # Unit weights in {0, 1}: many placements, each path and its
        # reversal, reach the maximum.
        rng = np.random.default_rng(1200 + k)
        for trial in range(4):
            adj = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
            graph = WeightedGraph(adj + adj.T)
            coding = make_color_coding(n, k, rng_seed=trial)
            res = self.assert_same_as_whole_family(TreeTemplate.path(k), graph, coding,
                                                   monkeypatch)
            assert res.value == brute_force_tree_filter(TreeTemplate.path(k), graph)

    @pytest.mark.parametrize("k,n", [(3, 6), (4, 8), (5, 10)])
    def test_integer_and_negative_weights(self, k, n, monkeypatch):
        rng = np.random.default_rng(1300 + k)
        for trial in range(4):
            tree = branching_tree(k, rng, integer=True)
            graph = random_graph(n, rng, integer=True)
            self.assert_same_as_whole_family(tree, graph, make_color_coding(n, k, trial),
                                             monkeypatch)
            graph = sparse_graph(n, rng, p=0.5, negative=2, isolated=trial)
            self.assert_same_as_whole_family(tree, graph, make_color_coding(n, k, trial),
                                             monkeypatch)

    @pytest.mark.parametrize("k,n", [(4, 40), (5, 16), (4, 8)])
    def test_workload_sizes(self, k, n, monkeypatch):
        rng = np.random.default_rng(1400 + n)
        for trial in range(2):
            adj = np.zeros((k, k))
            for u in range(k - 1):
                adj[u, u + 1] = adj[u + 1, u] = round(float(rng.uniform(0.5, 1.5)), 6)
            coding = make_color_coding(n, k, rng_seed=trial)
            res = self.assert_same_as_whole_family(TreeTemplate(adj), sparse_graph(n, rng),
                                                   coding, monkeypatch)
            assert res.approximate is False

    @pytest.mark.parametrize("k,n", [(2, 5), (4, 7), (5, 8)])
    def test_uncovered_family_is_approximate(self, k, n, monkeypatch):
        rng = np.random.default_rng(1500 + k)
        coding = ColorCoding(n=n, k=k, colorings=one_subset_uncovered(n, k, rng))
        tree = branching_tree(k, rng)
        res = self.assert_same_as_whole_family(tree, random_graph(n, rng), coding, monkeypatch)
        assert res.approximate is True
        covering = make_color_coding(n, k, rng_seed=k)
        assert is_rainbow_family(covering.colorings, n, k)
        assert mf_tree_dp(tree, random_graph(n, rng), covering).approximate is False

    @pytest.mark.parametrize("bits, approximate", [(7, False), (6, True)])
    def test_guard_skips_scan(self, bits, approximate, monkeypatch):
        # Binary codes color every pair of 57 vertices differently somewhere.
        # C(57, 2) = 1596 = 7·57·2²: seven codes are scanned, six exceed the
        # guard and run as a whole family, reported approximate though they
        # cover.
        n = 57
        colorings = (np.arange(n) >> np.arange(bits)[:, None]) & 1
        assert is_rainbow_family(colorings, n, 2)
        coding = ColorCoding(n=n, k=2, colorings=colorings)
        graph = sparse_graph(n, np.random.default_rng(1600 + bits), negative=3)
        res = self.assert_same_as_whole_family(TreeTemplate.path(2), graph, coding, monkeypatch)
        assert res.approximate is approximate
        assert res.value == 2.0 * graph.adj.max()
        scans = calls_of(monkeypatch, "_first_rainbow")
        fresh = ColorCoding(n=n, k=2, colorings=colorings)
        mf_tree_dp(TreeTemplate.path(2), graph, fresh)
        assert [k for _, k in scans] == ([] if approximate else [2])
        mf_tree_dp(TreeTemplate.path(2), graph, fresh)
        assert [k for _, k in scans] == ([] if approximate else [2])

    def test_empty_cover_rejected(self):
        graph = random_graph(6, np.random.default_rng(26))
        coding = ColorCoding(n=6, k=3, colorings=np.tile([0, 1, 0, 1, 0, 1], (70, 1)))
        with pytest.raises(mf.ValidationError, match="no coloring assigns every color"):
            mf_tree_dp(TreeTemplate.path(3), graph, coding)


class TestCoverOncePerCoding:
    """The covering sub-family is the coding's: scanned at most once per
    ColorCoding, and the color-set DP runs once per mf_tree_dp call."""

    def test_one_coding_on_two_graphs_scans_once(self, monkeypatch):
        rng = np.random.default_rng(1700)
        coding = make_color_coding(16, 4, rng_seed=3)       # n > 12: not verified
        scans = calls_of(monkeypatch, "_first_rainbow")
        dps = calls_of(monkeypatch, "_color_set_dp")
        tree = branching_tree(4, rng)
        for calls, graph in enumerate((sparse_graph(16, rng), random_graph(16, rng)), 1):
            res = mf_tree_dp(tree, graph, coding)
            assert len(scans) == 1 and len(dps) == calls
            assert injection_value(tree, graph, res.witnesses[0]) == pytest.approx(res.value,
                                                                                    rel=1e-12)
        assert len(coding.cover[0]) == len(dps[0][3]) < coding.size

    def test_verified_coding_adds_no_scan(self, monkeypatch):
        scans = calls_of(monkeypatch, "_first_rainbow")
        coding = make_color_coding(8, 4, rng_seed=5)        # n <= 12, k <= 4: verified
        made = len(scans)
        assert made >= 1 and coding.cover[1]
        res = mf_tree_dp(TreeTemplate.path(4), random_graph(8, np.random.default_rng(1701)),
                         coding)
        assert len(scans) == made and res.approximate is False

    def test_colorings_are_a_read_only_copy(self):
        colorings = np.random.default_rng(1702).integers(0, 3, size=(40, 6))
        coding = ColorCoding(n=6, k=3, colorings=colorings)
        with pytest.raises(ValueError):
            coding.colorings[0, 0] = 1
        with pytest.raises(ValueError):
            coding.cover[0][0] = 1
        colorings[:] = 0                                    # the caller's array stays writable
        assert coding.colorings.any()
        assert coding.cover is coding.cover
        assert coding.cover[1] == is_rainbow_family(coding.colorings, 6, 3)


def per_call_tree_dp(tree, graph, coding):
    """Reference: mf_tree_dp with the covering scan on every call and the
    traceback re-running the DP for the winning coloring alone, as
    ``(value, witness, approximate, stats)``."""
    from maxfilt import graphs

    a, b, k, n = tree.adj, graph.adj, tree.k, graph.n
    edges = validate_post_order(tree)
    colorings = coding.colorings
    big_n = len(colorings)
    if math.comb(n, k) <= big_n * n * 2 ** k:
        kept, exact = graphs._first_rainbow(colorings, k)
    else:
        kept, exact = np.arange(big_n), False
    root, color_sets = graphs._color_set_dp(a, b, edges, colorings[kept], k)
    root_scores = root.max(axis=1)
    i = int(np.argmax(root_scores))
    history = []
    one, _ = graphs._color_set_dp(a, b, edges, colorings[kept[i]][None, :], k, history)
    sigma = np.full(k, -1, dtype=int)
    colors = [0] * k
    sigma[k - 1] = int(np.argmax(one[0]))
    colors[k - 1] = (1 << k) - 1
    for (u, pu), (child, part) in zip(reversed(edges), reversed(history)):
        x, r = sigma[pu], colors[pu]
        w = a[u, pu] * b[:, x]
        best = -np.inf
        for t, table in child.items():
            s = r & ~t
            if t & ~r or s not in part:
                continue
            vals = part[s][0, x] + (table[0] + w)
            y = int(np.argmax(vals))
            if vals[y] > best:
                best, sigma[u], colors[u] = vals[y], y, t
        colors[pu] = r & ~colors[u]
    stats = {"pairs": color_sets * big_n * n * n, "colorings": big_n, "color_sets": color_sets}
    return 2.0 * float(root_scores[i]), sigma, not exact, stats


def traceback_cases(rng):
    """(tree, graph, coding): branching trees, unit-weight ties, integer and
    negative weights, isolated vertices, a guard-skipped coding and a family
    that misses a k-subset."""
    for k, n in [(2, 6), (3, 8), (4, 10), (5, 9), (6, 8)]:
        coding = make_color_coding(n, k, rng_seed=int(rng.integers(2 ** 31)))
        yield branching_tree(k, rng), random_graph(n, rng), coding
        yield branching_tree(k, rng, integer=True), random_graph(n, rng, integer=True), coding
        adj = np.triu((rng.random((n, n)) < 0.5).astype(float), 1)
        yield TreeTemplate.path(k), WeightedGraph(adj + adj.T), coding
        yield branching_tree(k, rng), sparse_graph(n, rng, p=0.5, negative=2, isolated=2), coding
        yield (TreeTemplate(np.abs(branching_tree(k, rng).adj)),
               sparse_graph(n, rng, isolated=n // 2), coding)
    skipped = ColorCoding(n=20, k=4, colorings=rng.integers(0, 4, size=(10, 20)))
    assert math.comb(20, 4) > 10 * 20 * 2 ** 4
    yield branching_tree(4, rng), sparse_graph(20, rng, negative=2), skipped
    for k, n in [(4, 7), (5, 8)]:
        uncovered = ColorCoding(n=n, k=k, colorings=one_subset_uncovered(n, k, rng))
        yield branching_tree(k, rng, integer=True), random_graph(n, rng, integer=True), uncovered


class TestTableTraceback:
    """The witness is read from the batch DP's own tables; value with its
    sign bit, witness, ``approximate`` and stats must equal the per-call
    scan and single-coloring re-run's."""

    @pytest.mark.parametrize("dense", [False, True], ids=["sparse", "dense"])
    def test_matches_single_coloring_rerun(self, dense, monkeypatch):
        from maxfilt import graphs

        if dense:
            monkeypatch.setattr(graphs, "_color_set_dp", dense_color_set_dp)
        rng = np.random.default_rng(1800)
        approximate = set()
        for tree, graph, coding in traceback_cases(rng):
            value, sigma, approx, stats = per_call_tree_dp(tree, graph, coding)
            res, got_stats = mf_tree_dp(tree, graph, coding, return_stats=True)
            assert res.value == value
            assert math.copysign(1.0, res.value) == math.copysign(1.0, value)
            np.testing.assert_array_equal(res.witnesses[0], sigma)
            assert res.approximate is approx and got_stats == stats
            approximate.add(approx)
        assert approximate == {False, True}


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
