"""The batched filter-bank engine against per-call evaluation and the oracle,
training on the engine against the per-call training loop, and the witness
form of the quotient distance, in bulk against one pair at a time."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import maxfilt as mf
from maxfilt import calculus, groups
from maxfilt.analysis import random_bank, random_template, sample_point
from maxfilt.core import _vector_norms
from maxfilt.groups import KINDS
from maxfilt.pipeline import (LabeledDataset, TrainConfig, _hinge_loss,
                              make_planted_window_dataset, train_one_vs_rest_templates,
                              train_svm_templates)
from maxfilt.templates import unit_sphere_vectors

from conftest import permutation_matrices, sign_group


def signed_permutation_group(d):
    return mf.Enumerated(tuple(s @ p for p in permutation_matrices(d)
                               for s in (np.diag([1.0, 1.0]), np.diag([1.0, -1.0]),
                                         np.diag([-1.0, 1.0]), -np.eye(2))))


# One instance per kind.  The patch tuple lists indices out of order, so ties
# must break by position within the patch, not by index.
GROUPS = {
    "enumerated": signed_permutation_group(2),
    "cyclic": mf.CyclicShift(6),
    "perm": mf.FullPermutation(5),
    "signedperm": mf.SignedPermutation(4),
    "signflips": mf.SignFlips(5),
    "orth": mf.FullOrthogonal(3),
    "leftorth": mf.LeftOrthogonal(2, 4),
    "colperm": mf.ColumnPermutation(2, 4),
    "phase": mf.PhaseCircle(3),
    "shiftconj": mf.ShiftAndConjugate(5),
    "patchperm": mf.PatchPermutation(((2, 0), (4, 1, 3), (5,))),
    "window": mf.SlidingWindowShift(2, 2, 5),
}
CONTINUOUS = {"orth", "leftorth", "phase", "shiftconj"}

# Dyadic entries keep every inner product exact, so ties are exact and
# distinct scores differ by far more than the tie tolerance.
LEVELS = [-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]


def operand_shape(group):
    if isinstance(group, (mf.LeftOrthogonal, mf.ColumnPermutation, mf.SlidingWindowShift)):
        return group.shape
    if isinstance(group, (mf.PhaseCircle, mf.ShiftAndConjugate)):
        return (group.dim // 2,)
    return (group.dim,)


def draw_operand(data, group, scale, template):
    shape = operand_shape(group)
    if template and isinstance(group, mf.SlidingWindowShift):
        shape = (group.c, group.w)
    mode = data.draw(st.sampled_from(["random", "random", "constant", "repeated", "zero"]))
    size = int(np.prod(shape))
    complex_kind = isinstance(group, (mf.PhaseCircle, mf.ShiftAndConjugate))

    def entries():
        if mode == "zero":
            return np.zeros(size)
        if mode == "constant":
            return np.full(size, data.draw(st.sampled_from(LEVELS)))
        if mode == "repeated":
            vals = data.draw(st.lists(st.sampled_from(LEVELS), min_size=2, max_size=2))
            return np.array([vals[i % 2] for i in range(size)])
        return np.array(data.draw(st.lists(st.sampled_from(LEVELS),
                                           min_size=size, max_size=size)))

    v = entries() * scale
    if complex_kind:
        v = v + 1j * entries() * scale
    v = v.reshape(shape)
    if template and isinstance(group, mf.SlidingWindowShift):
        z = np.zeros(group.shape)
        z[:, :, data.draw(st.integers(0, group.t - 1))] = v
        return z
    return v


def witness_at(witnesses, n, k):
    if isinstance(witnesses, tuple):
        return tuple(w[n, k] for w in witnesses)
    return witnesses[n, k]


def same_witness(kind, got, want) -> bool:
    if kind == "shiftconj":
        return ((int(got[0]), bool(got[1])) == (int(want[0]), bool(want[1]))
                and abs(complex(got[2]) - complex(want[2])) <= 1e-9)
    if kind == "signedperm":
        return np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    if kind in CONTINUOUS:
        return np.allclose(np.asarray(got), np.asarray(want), rtol=0.0, atol=1e-9)
    return np.array_equal(np.asarray(got), np.asarray(want))


def per_patch_reference(z, x, patches):
    """Patch permutation max filter one patch at a time: ties inside a patch
    break by position in the patch tuple."""
    value, perm = 0.0, np.empty(len(z), dtype=int)
    for p in patches:
        idx = np.asarray(p)
        sub = mf.max_filter(mf.FullPermutation(len(idx)), z[idx], x[idx])
        value += sub.value
        perm[idx] = idx[sub.witnesses[0]]
    return value, perm


@pytest.mark.parametrize("kind", sorted(GROUPS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_engine_matches_per_call_and_oracle(kind, data):
    group = GROUPS[kind]
    scale = data.draw(st.sampled_from([1.0, 1024.0]))
    Z = np.stack([draw_operand(data, group, scale, True) for _ in range(3)])
    X = np.stack([draw_operand(data, group, scale, False) for _ in range(4)])
    values, witnesses = mf.bank_argmax(group, Z, X)
    np.testing.assert_array_equal(mf.bank_values(group, Z, X), values)
    coef = np.array(data.draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]),
                                       min_size=12, max_size=12))).reshape(4, 3)
    gathered = mf.bank_subgradient(group, Z, X, witnesses, coef)
    expected = np.zeros(Z.shape, dtype=gathered.dtype)
    for n in range(4):
        for k in range(3):
            z, x = Z[k], X[n]
            scale_nk = 1.0 + np.linalg.norm(z) * np.linalg.norm(x)
            tol = 1e-12 * scale_nk
            res = mf.max_filter(group, z, x)
            assert abs(values[n, k] - res.value) <= tol
            w = witness_at(witnesses, n, k)
            assert same_witness(kind, w, res.witnesses[0])
            image = mf.apply_witness(group, w, x)
            assert abs(float(np.real(np.vdot(z, image))) - values[n, k]) <= tol
            expected[k] += coef[n, k] * image
            oracle = mf.brute_force_max_filter(group, z, x, resolution=64)
            if oracle.approximate:
                assert values[n, k] >= oracle.value - tol
            else:
                assert abs(values[n, k] - oracle.value) <= tol
                if kind == "patchperm":     # the oracle keeps one witness per patch
                    value, perm = per_patch_reference(z, x, group.patches)
                    assert abs(values[n, k] - value) <= tol
                    np.testing.assert_array_equal(w, perm)
                else:
                    assert any(same_witness(kind, w, c) for c in oracle.witnesses)
    if kind == "window":
        # Window templates stay on their slice (slice 0 for a zero template):
        # only that slice is formed.
        for k in range(3):
            t0 = int(np.argmax(np.abs(Z[k]).sum(axis=(0, 1)) > 0))
            keep = np.zeros(group.shape, dtype=bool)
            keep[:, :, t0] = True
            expected[k][~keep] = 0.0
    np.testing.assert_allclose(gathered, expected, rtol=1e-12, atol=1e-12 * scale ** 2)


def test_filter_bank_apply_is_the_engine_at_one_input():
    group = mf.CyclicShift(16)
    bank = random_bank(group, 5, rng_seed=3)
    x = np.random.default_rng(4).standard_normal(16)
    np.testing.assert_array_equal(mf.filter_bank_apply(group, bank, x),
                                  mf.bank_values(group, bank, [x])[0])


def test_engine_chunks_large_inputs(monkeypatch):
    # Chunking over inputs must not change values or witnesses.
    group = mf.CyclicShift(32)
    rng = np.random.default_rng(5)
    Z = rng.standard_normal((4, 32))
    X = rng.standard_normal((50, 32))
    whole = mf.bank_argmax(group, Z, X)
    monkeypatch.setattr(mf.core, "_BULK", 4 * 32 * 7)
    chunked = mf.bank_argmax(group, Z, X)
    np.testing.assert_allclose(chunked[0], whole[0], rtol=1e-14)
    np.testing.assert_array_equal(chunked[1], whole[1])


@pytest.mark.parametrize("kind", sorted(GROUPS))
def test_engine_accepts_no_inputs(kind):
    group = GROUPS[kind]
    bank = random_bank(group, 2, rng_seed=6)
    X = np.zeros((0,) + bank[0].vector.shape, dtype=bank[0].vector.dtype)
    assert mf.bank_values(group, bank, X).shape == (0, 2)
    values, witnesses = mf.bank_argmax(group, bank, X)
    assert values.shape == (0, 2)
    assert not np.any(mf.bank_subgradient(group, bank, X, witnesses, np.zeros((0, 2))))
    # An empty list has no row shape of its own: it is no inputs, as X is.
    empty = mf.core.as_operands(group, [])
    assert empty.shape == X.shape and empty.dtype == X.dtype
    np.testing.assert_array_equal(mf.bank_values(group, bank, []), values)
    got = mf.bank_argmax(group, bank, [])
    np.testing.assert_array_equal(got[0], values)
    for g, w in zip(*(v if isinstance(v, tuple) else (v,) for v in (got[1], witnesses))):
        assert g.shape == w.shape and g.dtype == w.dtype
    assert not np.any(mf.bank_subgradient(group, bank, [], got[1], np.zeros((0, 2))))


def test_engine_validates_operands():
    group = mf.CyclicShift(4)
    with pytest.raises(mf.ValidationError):
        mf.bank_values(group, [], np.zeros((2, 4)))
    with pytest.raises(mf.DimensionMismatch):
        mf.bank_values(group, np.ones((2, 4)), np.zeros((2, 5)))
    with pytest.raises(mf.ValidationError):
        mf.bank_values(group, np.ones((2, 4)), [[0.0, np.nan, 0.0, 0.0]])
    with pytest.raises(mf.ValidationError):
        mf.bank_values(group, [mf.Template(np.ones(4), group_kind="perm")], np.zeros((1, 4)))
    group = mf.SlidingWindowShift(2, 3, 5)
    Z = np.stack([t.vector for t in random_bank(group, 2, rng_seed=8)])
    X = np.random.default_rng(8).standard_normal((3,) + group.shape)
    _, witnesses = mf.bank_argmax(group, Z, X)
    coef = np.ones((3, 2))
    bad = X.copy()
    bad[1, 0, 2, 4] = np.nan
    with pytest.raises(mf.ValidationError):
        mf.bank_argmax(group, Z, bad)
    with pytest.raises(mf.ValidationError):
        mf.bank_subgradient(group, Z, bad, witnesses, coef)
    bad = Z.copy()
    bad[0, 1, 1, 0] = np.inf
    with pytest.raises(mf.ValidationError):
        mf.bank_argmax(group, bad, X)
    with pytest.raises(mf.ValidationError):
        mf.bank_subgradient(group, bad, X, witnesses, coef)


def prepared_case(kind):
    """A bank of 3 templates and 9 inputs with dyadic entries (exact ties)."""
    group = GROUPS[kind]
    rng = np.random.default_rng(40)
    bank = random_bank(group, 3, rng_seed=41)
    X = np.stack([np.round(2.0 * sample_point(group, rng)) / 2.0 for _ in range(9)])
    return group, bank, X


def assert_same_argmax(got, want):
    assert np.array_equal(got[0], want[0])
    for g, w in zip(*(v if isinstance(v, tuple) else (v,) for v in (got[1], want[1]))):
        assert g.dtype == w.dtype and np.array_equal(g, w)


@pytest.mark.parametrize("bulk", [None, 1])
@pytest.mark.parametrize("kind", sorted(GROUPS))
def test_prepared_bank_equals_the_engine_calls(kind, bulk, monkeypatch):
    if bulk is not None:                    # chunks of a single input row
        monkeypatch.setattr(mf.core, "_BULK", bulk)
    group, bank, X = prepared_case(kind)
    prepared = mf.FilterBank(group, bank)
    # The same prepared bank, asked again and in either order, gives the same.
    for _ in range(2):
        assert np.array_equal(prepared.values(X), mf.bank_values(group, bank, X))
        assert_same_argmax(prepared.argmax(X), mf.bank_argmax(group, bank, X))
    for xs in (X[:1], []):                  # one input, and no inputs
        assert np.array_equal(prepared.values(xs), mf.bank_values(group, bank, xs))
        assert_same_argmax(prepared.argmax(xs), mf.bank_argmax(group, bank, xs))
    assert np.array_equal(prepared.values([X[0]])[0], mf.filter_bank_apply(group, bank, X[0]))


@pytest.mark.parametrize("kind", sorted(GROUPS))
def test_prepared_bank_ties_within_max_filters_tolerance(kind):
    # The (N, K) tolerances the bulk form is given are tie_tolerance(z, x),
    # bit for bit, so a witness is the first one max_filter lists.
    group = GROUPS[kind]
    rng = np.random.default_rng(42)
    bank = random_bank(group, 4, rng_seed=43)
    X = np.stack([sample_point(group, rng) for _ in range(40)])
    prepared = mf.FilterBank(group, bank)
    bulk, seen = prepared._bulk, []
    prepared._bulk = lambda x, tol: seen.append(tol) or bulk(x, tol)
    prepared.argmax(X)
    want = [[mf.core.tie_tolerance(t.vector, x) for t in bank] for x in X]
    assert np.concatenate(seen).tolist() == want


def test_prepared_bank_validates_templates_once_and_inputs_per_call():
    group = mf.CyclicShift(4)
    with pytest.raises(mf.ValidationError):
        mf.FilterBank(group, [])
    with pytest.raises(mf.ValidationError):
        mf.FilterBank(group, [[1.0, np.nan, 0.0, 0.0]])
    with pytest.raises(mf.ValidationError):
        mf.FilterBank(group, [mf.Template(np.ones(4), group_kind="perm")])
    prepared = mf.FilterBank(group, np.eye(4))
    with pytest.raises(mf.DimensionMismatch):
        prepared.values(np.zeros((2, 5)))
    with pytest.raises(mf.ValidationError):
        prepared.argmax([[0.0, np.inf, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# Training on the engine against the per-call loop
# ---------------------------------------------------------------------------

def per_call_training(dataset, group, n_templates, config):
    """The training loop evaluated one (template, sample) pair at a time:
    ``max_filter`` for the features and ``subgradient(..., "first")`` for the
    template steps, projected back onto slice 0 for window templates."""
    labels = dataset.labels
    classes = sorted(set(labels))
    y = np.array([1.0 if l == classes[1] else -1.0 for l in labels])
    raws = dataset.raws
    rng = np.random.default_rng(config.rng_seed)
    if isinstance(group, mf.SlidingWindowShift):
        templates = []
        for _ in range(n_templates):
            z = np.zeros(group.shape)
            slab = rng.standard_normal((group.c, group.w))
            z[:, :, 0] = slab / np.linalg.norm(slab)
            templates.append(z)
    else:
        templates = [unit_sphere_vectors(1, group.dim, rng)[0]
                     for _ in range(n_templates)]
    w = np.array([(-1.0) ** i for i in range(n_templates)]) / n_templates
    b = 0.0

    def loss_of(feats, w, b):
        margins = y * (feats @ w + b)
        return float(np.mean(np.maximum(0.0, 1.0 - margins)) + config.ridge * float(w @ w))

    def features(zs):
        return np.array([[mf.max_filter(group, z, x).value for z in zs] for x in raws])

    initial = loss_of(features(templates), w, b)
    w_sum, b_sum = np.zeros_like(w), 0.0
    z_sum = [np.zeros_like(z) for z in templates]
    history = []
    n = len(raws)
    for t in range(1, config.epochs + 1):
        feats = features(templates)
        history.append(loss_of(feats, w, b))
        active = y * (feats @ w + b) < 1.0
        gw = 2.0 * config.ridge * w - (feats * (active * y)[:, None]).mean(axis=0)
        gb = -float(np.mean(active * y))
        eta = config.learning_rate / math.sqrt(t)
        for i in range(n_templates):
            gz = np.zeros_like(templates[i])
            for s in range(n):
                if active[s]:
                    gz -= y[s] * w[i] * calculus.subgradient(group, templates[i], raws[s], "first")
            templates[i] = templates[i] - eta * gz / n
            if isinstance(group, mf.SlidingWindowShift):
                keep = templates[i][:, :, 0].copy()
                templates[i][:] = 0.0
                templates[i][:, :, 0] = keep
        w, b = w - eta * gw, b - eta * gb
        w_sum += w
        b_sum += b
        for i in range(n_templates):
            z_sum[i] += templates[i]
    z_avg = [z / config.epochs for z in z_sum]
    final = loss_of(features(z_avg), w_sum / config.epochs, b_sum / config.epochs)
    return initial, history, final, z_avg


def sign_dataset():
    rng = np.random.default_rng(21)
    xs = [rng.standard_normal(3) + (2.0 if i % 2 else -0.5) for i in range(24)]
    return LabeledDataset(samples=[(x, "p" if i % 2 else "n") for i, x in enumerate(xs)])


@pytest.mark.parametrize("case", ["window", "enumerated"])
def test_training_matches_per_call_loop(case):
    if case == "window":
        dataset = make_planted_window_dataset(12, c=2, w=3, t=15, noise=0.1, rng_seed=22)
        group = mf.SlidingWindowShift(2, 3, 15)
    else:
        dataset, group = sign_dataset(), sign_group(3)
    config = TrainConfig(epochs=25, learning_rate=0.5, ridge=1e-3, rng_seed=23)
    model = train_svm_templates(dataset, group, 3, config)
    initial, history, final, z_avg = per_call_training(dataset, group, 3, config)
    np.testing.assert_allclose(model.config["loss_history"], history, rtol=1e-9)
    assert model.config["initial_loss"] == pytest.approx(initial, rel=1e-9)
    assert model.config["final_loss"] == pytest.approx(final, rel=1e-9)
    for t, z in zip(model.templates, z_avg):
        np.testing.assert_allclose(t.vector, z, rtol=1e-9, atol=1e-12)


def public_call_training(dataset, group, n_templates, config):
    """``train_svm_templates`` written with the public engine calls, which
    validate the samples and take their norms again on every epoch."""
    classes = sorted(set(dataset.labels))
    y = np.array([1.0 if l == classes[1] else -1.0 for l in dataset.labels])
    xs = dataset.raws
    rng = np.random.default_rng(config.rng_seed)
    templates = np.stack([random_template(group, rng) for _ in range(n_templates)])
    w = np.array([(-1.0) ** i for i in range(n_templates)]) / n_templates
    b = 0.0
    initial = _hinge_loss(mf.bank_values(group, templates, xs), y, w, b, config.ridge)
    w_sum, b_sum, z_sum = np.zeros_like(w), 0.0, np.zeros_like(templates)
    history = []
    for t in range(1, config.epochs + 1):
        feats, witnesses = mf.bank_argmax(group, templates, xs)
        history.append(_hinge_loss(feats, y, w, b, config.ridge))
        active = y * (feats @ w + b) < 1.0
        gw = 2.0 * config.ridge * w - (feats * (active * y)[:, None]).mean(axis=0)
        gb = -float(np.mean(active * y))
        eta = config.learning_rate / math.sqrt(t)
        coef = -(active * y)[:, None] * w[None, :]
        gz = mf.bank_subgradient(group, templates, xs, witnesses, coef) / len(xs)
        templates = templates - eta * gz
        w, b = w - eta * gw, b - eta * gb
        w_sum += w
        b_sum += b
        z_sum += templates
    w_avg, b_avg, z_avg = w_sum / config.epochs, b_sum / config.epochs, z_sum / config.epochs
    final = _hinge_loss(mf.bank_values(group, z_avg, xs), y, w_avg, b_avg, config.ridge)
    return z_avg, w_avg, b_avg, history, initial, final


@pytest.mark.parametrize("kind", ["window", "window-workload", "window-ties", "colperm",
                                  "cyclic"])
def test_training_matches_public_call_loop_exactly(kind):
    # Training validates the samples and takes their norms once per run; the
    # result must be the public per-epoch calls' bit for bit.
    n_templates, epochs = 3, 20
    if kind == "window":
        group = mf.SlidingWindowShift(2, 3, 15)
        dataset = make_planted_window_dataset(12, c=2, w=3, t=15, noise=0.1, rng_seed=22)
    elif kind == "window-workload":
        # The benchmark's train-window shape: 100 samples, 4 templates, 40 epochs.
        group = mf.SlidingWindowShift(3, 10, 200)
        dataset = make_planted_window_dataset(50, c=3, w=10, t=200, noise=0.1, rng_seed=30)
        n_templates, epochs = 4, 40
    elif kind == "window-ties":
        # Samples constant along the slice axis up to 1e-12, far within the tie
        # tolerance: every position ties and the first must be taken, since
        # any other position's slice changes the subgradient's last bits.
        group = mf.SlidingWindowShift(2, 3, 15)
        rng = np.random.default_rng(31)
        xs = [np.repeat(rng.standard_normal((2, 3, 1)) + (0.5 if i % 2 else -0.5), 15, axis=2)
              + 1e-12 * rng.standard_normal(group.shape) for i in range(24)]
        dataset = LabeledDataset(samples=[(x, "p" if i % 2 else "n") for i, x in enumerate(xs)])
    else:
        group = GROUPS[kind]
        rng = np.random.default_rng(28)
        xs = [sample_point(group, rng) * (2.0 if i % 2 else 0.5) for i in range(24)]
        dataset = LabeledDataset(samples=[(x, "p" if i % 2 else "n") for i, x in enumerate(xs)])
    config = TrainConfig(epochs=epochs, learning_rate=0.5, ridge=1e-3, rng_seed=29)
    model = train_svm_templates(dataset, group, n_templates, config)
    z_avg, w_avg, b_avg, history, initial, final = public_call_training(
        dataset, group, n_templates, config)
    assert np.array_equal(np.stack([t.vector for t in model.templates]), z_avg)
    assert np.array_equal(model.classifier["weights"], w_avg)
    assert model.classifier["bias"] == b_avg
    assert model.config["loss_history"] == history
    assert model.config["initial_loss"] == initial
    assert model.config["final_loss"] == final


def test_one_vs_rest_training_matches_public_call_loops():
    group = mf.SlidingWindowShift(2, 3, 15)
    rng = np.random.default_rng(32)
    motifs = {lab: rng.standard_normal((2, 3)) for lab in "abc"}
    samples = []
    for i in range(18):
        lab = "abc"[i % 3]
        x = 0.1 * rng.standard_normal(group.shape)
        x[:, :, int(rng.integers(15))] += motifs[lab]
        samples.append((x, lab))
    config = TrainConfig(epochs=15, learning_rate=0.5, ridge=1e-3, rng_seed=33)
    models = train_one_vs_rest_templates(LabeledDataset(samples=samples), group, 2, config)
    assert [cls for cls, _ in models] == ["a", "b", "c"]
    for cls, model in models:
        relabeled = LabeledDataset(
            samples=[(x, "pos" if lab == cls else "neg") for x, lab in samples])
        z_avg, w_avg, b_avg, history, initial, final = public_call_training(
            relabeled, group, 2, config)
        assert np.array_equal(np.stack([t.vector for t in model.templates]), z_avg)
        assert np.array_equal(model.classifier["weights"], w_avg)
        assert model.classifier["bias"] == b_avg
        assert model.config["loss_history"] == history
        assert model.config["initial_loss"] == initial
        assert model.config["final_loss"] == final


def test_training_validates_samples():
    group = mf.SlidingWindowShift(2, 3, 15)
    dataset = make_planted_window_dataset(4, c=2, w=3, t=15, noise=0.1, rng_seed=22)
    raw, label = dataset.samples[3]
    raw = raw.copy()
    raw[1, 2, 7] = np.nan
    dataset.samples[3] = (raw, label)
    with pytest.raises(mf.ValidationError):
        train_svm_templates(dataset, group, 2, TrainConfig(epochs=2))


def test_window_bank_keeps_its_stream():
    group = mf.SlidingWindowShift(3, 10, 200)
    bank = random_bank(group, 4, 7)
    rng = np.random.default_rng(7)
    for t in bank:
        slab = rng.standard_normal((3, 10))
        np.testing.assert_array_equal(t.vector[:, :, 0], slab / np.linalg.norm(slab))
        assert not np.any(t.vector[:, :, 1:])
    pinned = [(0.0002439738135611807, 0.022472340751522105),
              (-0.3132594469491688, -0.13832601514582085),
              (0.04596645703691602, 0.14778167746220072),
              (-0.0050414214658884736, 0.04024722318361095)]
    assert [(t.vector[0, 0, 0], t.vector[2, 9, 0]) for t in bank] == pinned
    rng = np.random.default_rng(7)
    np.testing.assert_array_equal(random_template(group, rng), bank[0].vector)


def test_window_training_takes_the_whole_tensors_norms(monkeypatch):
    # The tie tolerances of window training use the norms of the whole
    # (c, w, T) tensors, as a FilterBank of them does; the norm of a slice
    # alone can differ in the last bit, and here does for some template.
    group = mf.SlidingWindowShift(3, 10, 200)
    rng = np.random.default_rng(5)
    Z = np.zeros((16,) + group.shape)
    Z[np.arange(16), :, :, rng.integers(0, group.t, 16)] = rng.standard_normal((16, 3, 10))
    run = KINDS["window"].training(group, Z)
    handed = []
    evaluate = groups._evaluate
    monkeypatch.setattr(groups, "_evaluate",
                        lambda bulk, norms, *rest: handed.append(norms) or evaluate(bulk, norms, *rest))
    X = rng.standard_normal((5,) + group.shape)
    run.evaluate(run.params, X, _vector_norms(X))
    whole = _vector_norms(run.templates(run.params))
    assert handed[0].tolist() == whole.tolist()
    assert (_vector_norms(run.params) != whole).any()


# ---------------------------------------------------------------------------
# Quotient distance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("distance", [1e-6, 1e-8])
def test_quotient_distance_keeps_small_distances_at_large_norm(distance):
    # |x| is about 1600.  Entries of the base sit on a 2^-10 grid and those of
    # the offset on a 2^-44 grid, so x = base + offset is exact and the true
    # distance is exactly |offset| (the shift that undoes the roll is far
    # better than any other).
    rng = np.random.default_rng(24)
    base = np.round(100.0 * rng.standard_normal(256) * 2.0 ** 10) / 2.0 ** 10
    offset = rng.standard_normal(256)
    offset = np.round(offset * distance / np.linalg.norm(offset) * 2.0 ** 44) / 2.0 ** 44
    x = base + offset
    assert np.array_equal(x - base, offset)
    y = np.roll(base, 37)
    got = mf.quotient_distance(mf.CyclicShift(256), x, y)
    assert got == pytest.approx(float(np.linalg.norm(offset)), rel=1e-6)


def per_pair_distances(group, X, Y):
    """The per-pair route: the first witness ``max_filter`` lists, its image
    and the norm of the difference, one pair at a time."""
    witnesses, dists = [], []
    for x, y in zip(X, Y):
        g = mf.max_filter(group, x, y).witnesses[0]
        witnesses.append(g)
        dists.append(mf.core.norm(x - mf.apply_witness(group, g, y)))
    return witnesses, np.array(dists)


def paired_witnesses(group, X, Y):
    tol = np.array([mf.core.tie_tolerance(x, y) for x, y in zip(X, Y)])
    return KINDS[group.kind].pairs(group, X, Y, tol)


def assert_paired_matches_per_pair(group, X, Y):
    """First witnesses and distances ``==``; the continuous kinds included,
    as their paired forms repeat the per-pair floating-point operations."""
    X, Y = mf.core.as_operands(group, X), mf.core.as_operands(group, Y)
    want_w, want_d = per_pair_distances(group, X, Y)
    got_w = paired_witnesses(group, X, Y)
    for i, want in enumerate(want_w):
        got = tuple(w[i] for w in got_w) if isinstance(got_w, tuple) else got_w[i]
        if isinstance(want, tuple):
            assert all(np.array_equal(g, w) for g, w in zip(got, want)), (i, got, want)
        else:
            assert np.array_equal(got, want), (i, got, want)
    got_d = mf.quotient_distances(group, X, Y)
    assert got_d.shape == (len(X),)
    np.testing.assert_array_equal(got_d, want_d)


@pytest.mark.parametrize("kind", sorted(GROUPS))
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_quotient_distances_match_per_pair(kind, data):
    # Dyadic tie-heavy, constant, zero and equal operands, at norms up to
    # about 1e4; X rows sometimes sit on one slice (window).
    group = GROUPS[kind]
    scale = data.draw(st.sampled_from([1.0, 1024.0, 4096.0]))
    n = data.draw(st.integers(1, 4))
    X = [draw_operand(data, group, scale, data.draw(st.booleans())) for _ in range(n)]
    Y = [x.copy() if data.draw(st.booleans()) else draw_operand(data, group, scale, False)
         for x in X]
    assert_paired_matches_per_pair(group, X, Y)


@pytest.mark.parametrize("kind", sorted(GROUPS))
def test_quotient_distances_match_per_pair_in_bulk(kind):
    # 45 pairs: over the lockstep solver's threshold for colperm.  Half the
    # pairs are rounded to a coarse grid, so ties are common.
    group = GROUPS[kind]
    rng = np.random.default_rng(25)
    X = [sample_point(group, rng) for _ in range(45)]
    Y = [sample_point(group, rng) for _ in range(45)]
    for i in range(0, 45, 2):
        X[i], Y[i] = np.round(2.0 * X[i]) / 2.0, np.round(2.0 * Y[i]) / 2.0
    X[1] = np.zeros_like(X[1])
    Y[3] = X[3]
    assert_paired_matches_per_pair(group, X, Y)


@pytest.mark.parametrize("group", [mf.CyclicShift(96), mf.ShiftAndConjugate(96),
                                   mf.SlidingWindowShift(2, 2, 96)], ids=lambda g: g.kind)
def test_quotient_distances_break_exact_ties_like_max_filter(group):
    # Operands of period 12 along the shift axis tie exactly at every 12th
    # shift, and the FFT at n = 96 rounds those scores apart: only the tie
    # tolerance picks the same first witness as max_filter.
    rng = np.random.default_rng(27)
    point = sample_point(group, rng)

    def periodic():
        v = np.tile(rng.integers(-4, 5, point.shape[:-1] + (12,)) / 2.0, 8)
        return v + 1j * np.roll(v, 1) if np.iscomplexobj(point) else v
    assert_paired_matches_per_pair(group, [periodic() for _ in range(20)],
                                   [periodic() for _ in range(20)])


@pytest.mark.parametrize("kind", sorted(GROUPS))
def test_quotient_distances_chunk_and_empty(kind, monkeypatch):
    group = GROUPS[kind]
    rng = np.random.default_rng(26)
    X = np.stack([sample_point(group, rng) for _ in range(11)])
    Y = np.stack([sample_point(group, rng) for _ in range(11)])
    whole = mf.quotient_distances(group, X, Y)
    assert mf.quotient_distances(group, X[:0], Y[:0]).shape == (0,)
    assert mf.quotient_distances(group, [], []).shape == (0,)
    assert mf.quotient_distance(group, X[0], Y[0]) == whole[0]
    width = KINDS[kind].paired_width or KINDS[kind].width
    monkeypatch.setattr(mf.core, "_BULK", 1)
    assert mf.core._chunk_rows(group, 1, width) == 1
    np.testing.assert_array_equal(mf.quotient_distances(group, X, Y), whole)
    monkeypatch.setattr(mf.core, "_BULK", 4 * width(group))
    assert mf.core._chunk_rows(group, 1, width) == 4
    np.testing.assert_array_equal(mf.quotient_distances(group, X, Y), whole)


def test_window_quotient_distances_size_chunks_by_their_ffts(monkeypatch):
    # The paired window form takes real FFTs of whole operands, so its chunks
    # are sized by those and not by the bank's score width (which let these
    # 700 pairs peak at 96 MB).  Validating the operands takes one bool per
    # entry of a block of rows, within the chunks' 1.6 MB.
    group = mf.SlidingWindowShift(3, 10, 200)
    rng = np.random.default_rng(30)
    X = rng.standard_normal((700,) + group.shape)
    Y = rng.standard_normal((700,) + group.shape)
    tracemalloc.start()
    try:
        chunked = mf.quotient_distances(group, X, Y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 8 * mf.core._BULK
    monkeypatch.setattr(mf.core, "_BULK", len(X) * KINDS["window"].paired_width(group))
    assert mf.core._chunk_rows(group, 1, KINDS["window"].paired_width) == len(X)
    np.testing.assert_array_equal(mf.quotient_distances(group, X, Y), chunked)


def test_quotient_distances_validate_operands():
    group = mf.CyclicShift(4)
    with pytest.raises(mf.DimensionMismatch):
        mf.quotient_distances(group, np.zeros((2, 4)), np.zeros((3, 4)))
    with pytest.raises(mf.DimensionMismatch):
        mf.quotient_distances(group, np.zeros((2, 4)), np.zeros((2, 5)))
    with pytest.raises(mf.ValidationError):
        mf.quotient_distances(group, np.zeros((1, 4)), [[0.0, np.inf, 0.0, 0.0]])


@pytest.mark.parametrize("kind", ["leftorth", "phase", "colperm"])
def test_training_on_matrix_and_complex_kinds(kind):
    # Templates start in the kind's own operand layout (matrices, complex
    # vectors), not as flat real vectors.
    group = GROUPS[kind]
    rng = np.random.default_rng(0)
    xs = [sample_point(group, rng) * (2.0 if i % 2 else 0.5) for i in range(20)]
    ds = LabeledDataset(samples=[(x, "p" if i % 2 else "n") for i, x in enumerate(xs)])
    model = train_svm_templates(ds, group, 2, TrainConfig(epochs=10))
    assert model.templates[0].vector.shape == xs[0].shape
    assert model.config["final_loss"] <= model.config["initial_loss"]
