"""The JSON codecs of every group kind, pinned exactly: the model format's
group dicts and the CLI's witness encodings."""

import dataclasses
import json
import typing

import numpy as np
import pytest

import maxfilt as mf
from maxfilt.cli import witness_jsonable
from maxfilt.pipeline import group_from_jsonable, group_to_jsonable

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
