"""The JSON codecs of every group kind, pinned exactly: the model format's
group dicts, the CLI's witness encodings, template documents and model
files."""

import dataclasses
import json
import typing

import numpy as np
import pytest

import maxfilt as mf
from maxfilt.analysis import sample_point
from maxfilt.cli import witness_jsonable
from maxfilt.pipeline import (LabeledDataset, PipelineModel, TrainConfig, group_from_jsonable,
                              group_to_jsonable, load_model, save_model, train_svm_templates)
from maxfilt.templates import Template

REFLECT = ((1.0, 0.0), (0.0, -1.0))

# kind -> (group, its model-format dict)
GROUP_DICTS = {
    "enumerated": (mf.Enumerated((np.eye(2), np.array(REFLECT))),
                   {"kind": "enumerated", "matrices": [[[1.0, 0.0], [0.0, 1.0]],
                                                       [[1.0, 0.0], [0.0, -1.0]]]}),
    "cyclic": (mf.CyclicShift(6), {"kind": "cyclic", "n": 6}),
    "perm": (mf.FullPermutation(5), {"kind": "perm", "d": 5}),
    "signedperm": (mf.SignedPermutation(4), {"kind": "signedperm", "d": 4}),
    "signflips": (mf.SignFlips(3), {"kind": "signflips", "d": 3}),
    "orth": (mf.FullOrthogonal(2), {"kind": "orth", "d": 2}),
    "leftorth": (mf.LeftOrthogonal(2, 7), {"kind": "leftorth", "k": 2, "n": 7}),
    "colperm": (mf.ColumnPermutation(3, 4), {"kind": "colperm", "k": 3, "n": 4}),
    "phase": (mf.PhaseCircle(4), {"kind": "phase", "r": 4}),
    "shiftconj": (mf.ShiftAndConjugate(9), {"kind": "shiftconj", "n": 9}),
    "patchperm": (mf.PatchPermutation(((2, 0), (1, 3))),
                  {"kind": "patchperm", "patches": [[2, 0], [1, 3]]}),
    "window": (mf.SlidingWindowShift(2, 3, 8), {"kind": "window", "c": 2, "w": 3, "t": 8}),
}

# kind -> (one witness, with numpy scalars where engine witnesses have them,
# and its JSON text)
WITNESSES = {
    "enumerated": (np.int64(1), "1"),
    "cyclic": (3, "3"),
    "perm": (np.array([2, 0, 1, 4, 3]), "[2, 0, 1, 4, 3]"),
    "signedperm": ((np.array([1, 0]), np.array([1.0, -1.0])),
                   '{"perm": [1, 0], "signs": [1.0, -1.0]}'),
    "signflips": (np.array([1.0, -1.0, 1.0]), "[1.0, -1.0, 1.0]"),
    "orth": (np.array(REFLECT), "[[1.0, 0.0], [0.0, -1.0]]"),
    "leftorth": (np.eye(2), "[[1.0, 0.0], [0.0, 1.0]]"),
    "colperm": (np.array([3, 1, 0, 2]), "[3, 1, 0, 2]"),
    "phase": (complex(0.6, -0.8), "[0.6, -0.8]"),
    "shiftconj": ((np.int64(2), np.bool_(True), np.complex128(-1.0)),
                  '{"conjugate": true, "phase": [-1.0, 0.0], "shift": 2}'),
    "patchperm": (np.array([0, 2, 1, 3]), "[0, 2, 1, 3]"),
    "window": (np.int64(5), "5"),
}


def test_every_kind_is_pinned():
    kinds = {cls.kind for cls in typing.get_args(mf.GroupAction)}
    assert {g.kind for g, _ in GROUP_DICTS.values()} == set(GROUP_DICTS) == set(WITNESSES)
    assert set(GROUP_DICTS) == kinds and len(kinds) == 12


@pytest.mark.parametrize("kind", sorted(GROUP_DICTS))
def test_group_codec(kind):
    group, want = GROUP_DICTS[kind]
    got = group_to_jsonable(group)
    assert got == want
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)
    back = group_from_jsonable(json.loads(json.dumps(got)))
    assert type(back) is type(group)
    if type(group).__eq__ is not object.__eq__:
        assert back == group
    else:                     # array-holding descriptors compare by identity
        for f in dataclasses.fields(group):
            a, b = getattr(back, f.name), getattr(group, f.name)
            assert len(a) == len(b) and all(np.array_equal(u, v) for u, v in zip(a, b))
    assert group_to_jsonable(back) == want


def test_no_group_and_unknown_kinds():
    assert group_to_jsonable(None) is None and group_from_jsonable(None) is None
    with pytest.raises(mf.ValidationError):
        group_from_jsonable({"kind": "nope", "n": 3})
    with pytest.raises(mf.ValidationError):
        group_to_jsonable(object())


@pytest.mark.parametrize("kind", sorted(WITNESSES))
def test_witness_codec(kind):
    group = GROUP_DICTS[kind][0]
    witness, text = WITNESSES[kind]
    assert json.dumps(witness_jsonable(group, witness), sort_keys=True) == text


def test_witness_codec_on_max_filter_witnesses():
    # Python-typed witnesses from max_filter: a JSON bool flag and int shift.
    z = np.array([1.0 + 1j, 2.0, 0.5j, 0.0])
    result = mf.max_filter(mf.ShiftAndConjugate(4), z, 1j * np.roll(np.conj(z), 1))
    assert result.witnesses == [(3, True, 1j)]
    assert [type(p) for p in result.witnesses[0]] == [int, bool, complex]
    doc = witness_jsonable(mf.ShiftAndConjugate(4), result.witnesses[0])
    assert json.dumps(doc, sort_keys=True) == \
        '{"conjugate": true, "phase": [0.0, 1.0], "shift": 3}'


# kind -> (a small group of that kind, the text of a random template's
# to_dict): a matrix or tensor carries its shape, a complex vector is a list
# of [re, im] pairs, and colperm's 3 x 2 matrix is real.
TEMPLATE_DOCS = {
    "enumerated": (GROUP_DICTS["enumerated"][0],
                   '{"group_kind": "enumerated", "label": "enumerated-0", "support": null, '
                   '"vector": [-1.1, -0.73]}'),
    "cyclic": (mf.CyclicShift(3),
               '{"group_kind": "cyclic", "label": "cyclic-0", "support": [0, 1, 2], '
               '"vector": [1.05, 1.78, -2.55]}'),
    "perm": (mf.FullPermutation(3),
             '{"group_kind": "perm", "label": "perm-0", "support": null, '
             '"vector": [-0.65, -0.17, 1.66]}'),
    "signedperm": (mf.SignedPermutation(2),
                   '{"group_kind": "signedperm", "label": "signedperm-0", "support": null, '
                   '"vector": [-1.1, -0.73]}'),
    "signflips": (mf.SignFlips(2),
                  '{"group_kind": "signflips", "label": "signflips-0", "support": null, '
                  '"vector": [-0.8, 0.24]}'),
    "orth": (mf.FullOrthogonal(2),
             '{"group_kind": "orth", "label": "orth-0", "support": null, '
             '"vector": [-0.65, -0.17]}'),
    "leftorth": (mf.LeftOrthogonal(2, 3),
                 '{"group_kind": "leftorth", "label": "leftorth-0", "shape": [2, 3], '
                 '"support": null, "vector": [[-1.74, -1.34, -1.36], [-0.35, -2.31, -0.19]]}'),
    "colperm": (mf.ColumnPermutation(3, 2),
                '{"group_kind": "colperm", "label": "colperm-0", "shape": [3, 2], '
                '"support": null, "vector": [[0.0, 0.3], [-0.27, -0.89], [-0.45, -0.99]]}'),
    "phase": (mf.PhaseCircle(2),
              '{"group_kind": "phase", "label": "phase-0", "support": null, '
              '"vector": [[-0.8, -0.25], [-1.32, 0.42]]}'),
    "shiftconj": (mf.ShiftAndConjugate(3),
                  '{"group_kind": "shiftconj", "label": "shiftconj-0", "support": null, '
                  '"vector": [[-0.8, 0.66], [0.24, 1.14], [-1.66, -0.45]]}'),
    "patchperm": (mf.PatchPermutation(((0, 1), (2, 3))),
                  '{"group_kind": "patchperm", "label": "patchperm-0", "support": null, '
                  '"vector": [-0.8, 0.24, -1.66, 0.66]}'),
    "window": (mf.SlidingWindowShift(1, 2, 3),
               '{"group_kind": "window", "label": "window-0", "shape": [1, 2, 3], '
               '"support": null, "vector": [[[1.05, 1.78, -2.55], [-0.14, 1.01, 1.35]]]}'),
}


def random_template(kind):
    group = TEMPLATE_DOCS[kind][0]
    vec = sample_point(group, np.random.default_rng(len(kind))).round(2)
    return Template(vector=vec, group_kind=kind, support=(0, 1, 2) if kind == "cyclic" else None,
                    label=f"{kind}-0")


def trained_template(kind):
    group = TEMPLATE_DOCS[kind][0]
    rng = np.random.default_rng(len(kind))
    samples = [(sample_point(group, rng), "ab"[i % 2]) for i in range(6)]
    model = train_svm_templates(LabeledDataset(samples), group, 1, TrainConfig(epochs=2))
    return model.templates[0]


def assert_same_template(back, t):
    assert back.vector.dtype == t.vector.dtype and back.vector.shape == t.vector.shape
    assert np.array_equal(back.vector, t.vector)
    assert (back.group_kind, back.support, back.label) == (t.group_kind, t.support, t.label)


def test_every_kind_has_a_template_doc():
    assert set(TEMPLATE_DOCS) == set(GROUP_DICTS)
    assert all(g.kind == kind for kind, (g, _) in TEMPLATE_DOCS.items())


@pytest.mark.parametrize("kind", sorted(TEMPLATE_DOCS))
def test_template_doc_pinned(kind):
    t = random_template(kind)
    assert t.vector.shape == TEMPLATE_DOCS[kind][0].shape
    assert json.dumps(t.to_dict(), sort_keys=True) == TEMPLATE_DOCS[kind][1]


@pytest.mark.parametrize("make", [random_template, trained_template], ids=["random", "trained"])
@pytest.mark.parametrize("kind", sorted(TEMPLATE_DOCS))
def test_template_round_trip(kind, make):
    t = make(kind)
    assert_same_template(Template.from_dict(json.loads(json.dumps(t.to_dict()))), t)


def test_template_shape_must_match_its_vector():
    doc = random_template("colperm").to_dict()
    doc["shape"] = [2, 3]
    with pytest.raises(mf.ValidationError, match="does not match its shape"):
        Template.from_dict(doc)


def small_model(kind):
    svm = {"type": "svm", "weights": np.array([0.5, -1.25]), "bias": 0.125, "labels": ["a", "b"]}
    if kind == "window":
        group, vectors = mf.SlidingWindowShift(1, 2, 3), [
            np.array([[[1.0, -0.5, 0.0], [0.25, 2.0, -1.0]]]),
            np.array([[[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]]])]
    else:
        group, vectors = mf.PhaseCircle(2), [np.array([1.0 - 0.5j, 0.25j]),
                                             np.array([-2.0 + 0.0j, 0.75 + 1.0j])]
    templates = [Template(vector=v, group_kind=kind, support=(3,) if i and kind == "window"
                          else None, label=f"trained-{i}") for i, v in enumerate(vectors)]
    return PipelineModel(templates=templates, pca_mean=None, pca_basis=None, classifier=svm,
                         group=group, config={"featurizer": "filter_bank", "epochs": 2})


# The model files of small_model, whitespace collapsed to one space.
MODEL_TEXTS = {
    "window": '{ "classifier": { "bias": 0.125, "labels": [ "a", "b" ], "type": "svm", '
              '"weights": [ 0.5, -1.25 ] }, "config": { "epochs": 2, "featurizer": '
              '"filter_bank" }, "format": "maxfilt-model/1", "group": { "c": 1, "kind": '
              '"window", "t": 3, "w": 2 }, "pca": null, "templates": [ { "group_kind": '
              '"window", "label": "trained-0", "shape": [ 1, 2, 3 ], "support": null, '
              '"vector": [ [ [ 1.0, -0.5, 0.0 ], [ 0.25, 2.0, -1.0 ] ] ] }, { "group_kind": '
              '"window", "label": "trained-1", "shape": [ 1, 2, 3 ], "support": [ 3 ], '
              '"vector": [ [ [ 0.0, 0.0, 0.0 ], [ 1.5, 0.0, 0.0 ] ] ] } ] }',
    "phase": '{ "classifier": { "bias": 0.125, "labels": [ "a", "b" ], "type": "svm", '
             '"weights": [ 0.5, -1.25 ] }, "config": { "epochs": 2, "featurizer": '
             '"filter_bank" }, "format": "maxfilt-model/1", "group": { "kind": "phase", '
             '"r": 2 }, "pca": null, "templates": [ { "group_kind": "phase", "label": '
             '"trained-0", "support": null, "vector": [ [ 1.0, -0.5 ], [ 0.0, 0.25 ] ] }, '
             '{ "group_kind": "phase", "label": "trained-1", "support": null, "vector": '
             '[ [ -2.0, 0.0 ], [ 0.75, 1.0 ] ] } ] }',
}


@pytest.mark.parametrize("kind", sorted(MODEL_TEXTS))
def test_model_file_pinned(kind, tmp_path):
    model, path = small_model(kind), tmp_path / "model.json"
    save_model(model, str(path))
    text = path.read_text()
    assert " ".join(text.split()) == MODEL_TEXTS[kind]
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    back = load_model(str(path))
    for b, t in zip(back.templates, model.templates, strict=True):
        assert_same_template(b, t)
    assert np.array_equal(back.classifier["weights"], model.classifier["weights"])
    save_model(back, str(path))
    assert path.read_text() == text


def test_model_reads_legacy_complex_arrays(tmp_path):
    # Older files may hold a complex array as {"complex": true, "re", "im"}.
    model, path = small_model("phase"), tmp_path / "model.json"
    save_model(model, str(path))
    doc = json.loads(path.read_text())
    for entry, t in zip(doc["templates"], model.templates):
        entry["vector"] = {"complex": True, "re": t.vector.real.tolist(),
                           "im": t.vector.imag.tolist()}
        entry["shape"] = list(t.vector.shape)
    path.write_text(json.dumps(doc))
    for b, t in zip(load_model(str(path)).templates, model.templates, strict=True):
        assert_same_template(b, t)
