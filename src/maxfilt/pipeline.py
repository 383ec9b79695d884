"""End-to-end invariant-feature classification.

Ingestion of the supported file formats, the three worked featurizations
(planar shape signals, windowed time series, multiscale sorted-patch texture
features), PCA + pooled-covariance LDA, joint subgradient training of
templates with a linear hinge classifier, and a versioned JSON model format.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import groups
from .core import (FilterBank, GroupAction, NumericFailure, ValidationError,
                   _require_integer, _vector_norms, as_operands)
from .templates import HermiteSpec, Template, _hermite_grid, array_from_jsonable, to_jsonable

MODEL_FORMAT = "maxfilt-model/1"


@dataclass(eq=False)
class LabeledDataset:
    """Raw samples with string labels."""

    samples: list                      # list of (raw object, label)
    format: str = ""

    @property
    def labels(self) -> list:
        return [lab for _, lab in self.samples]

    @property
    def raws(self) -> list:
        return [raw for raw, _ in self.samples]


# ---------------------------------------------------------------------------
# Ingestion
# ---------------------------------------------------------------------------

def ingest(path: str, format: str) -> LabeledDataset:
    """Parse a dataset file per the declared format, with shape validation.
    A dataset with no samples, in any format, is a ValidationError naming
    the file."""
    readers = {"csv": _ingest_csv, "pgm": _ingest_pgm, "polygon_json": _ingest_polygons,
               "ecg_csv": _ingest_ecg}
    if format not in readers:
        raise ValidationError(f"unknown format {format!r}")
    dataset = readers[format](path)
    if not dataset.samples:
        raise ValidationError(f"dataset {path} holds no samples")
    return dataset


def _ingest_csv(path: str) -> LabeledDataset:
    samples = []
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.rstrip("\n") for line in fh if line.strip()]
    for line in rows[1:]:                       # header row skipped
        if line.count(",") >= 1 and line.lstrip().startswith("\"["):
            # JSON-vector variant: "json array", label
            closing = line.rindex("\"")
            vec = np.asarray(json.loads(line[1:closing]), dtype=float)
            label = line[closing + 1:].lstrip(",").strip()
        elif line.lstrip().startswith("["):
            closing = line.rindex("]")
            vec = np.asarray(json.loads(line[:closing + 1]), dtype=float)
            label = line[closing + 1:].lstrip(",").strip()
        else:
            cells = line.split(",")
            try:
                vec = np.asarray([float(c) for c in cells[:-1]])
            except ValueError as exc:
                raise ValidationError(f"malformed csv row: {line!r}") from exc
            label = cells[-1].strip()
        if not label:
            raise ValidationError("csv row missing label")
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise ValidationError("inconsistent vector lengths in csv")
        samples.append((vec, label))
    return LabeledDataset(samples=samples, format="csv")


def parse_pgm(path: str) -> np.ndarray:
    """Binary P5, 8-bit, square power-of-two side; values scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise ValidationError("truncated pgm header")
        if data[i:i + 1] == b"#":
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
        elif data[i:i + 1].isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j:j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    if tokens[0] != b"P5":
        raise ValidationError("not a binary P5 pgm")
    width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    if maxval > 255:
        raise ValidationError("only 8-bit pgm supported")
    if width != height or width & (width - 1):
        raise ValidationError("pgm must be square with power-of-two side")
    i += 1                                       # single whitespace after maxval
    pixels = np.frombuffer(data[i:i + width * height], dtype=np.uint8)
    if len(pixels) != width * height:
        raise ValidationError("pgm pixel payload truncated")
    return pixels.reshape(height, width).astype(float) / maxval


def write_pgm(path: str, image: np.ndarray) -> None:
    img = np.asarray(image, dtype=float)
    pixels = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode())
        fh.write(pixels.tobytes())


def _read_manifest(path: str, read, what: str) -> list:
    """``(read(file), label)`` for every sample the manifest at ``path``
    lists (a ``{"samples": [...]}`` object or a bare list of ``{"path",
    "label"}`` entries, paths relative to the manifest); a ValidationError
    "<what> must share a common shape" when the samples' shapes differ."""
    with open(path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    base = os.path.dirname(os.path.abspath(path))
    entries = manifest["samples"] if isinstance(manifest, dict) else manifest
    # Every entry's keys are read before any file; null lists no samples.
    listed = [(os.path.join(base, e["path"]), str(e["label"])) for e in entries or ()]
    samples = [(read(p), label) for p, label in listed]
    if len({raw.shape for raw, _ in samples}) > 1:
        raise ValidationError(f"{what} must share a common shape")
    return samples


def _ingest_pgm(path: str) -> LabeledDataset:
    if path.endswith(".pgm"):
        label = os.path.splitext(os.path.basename(path))[0].split("-")[0]
        return LabeledDataset(samples=[(parse_pgm(path), label)], format="pgm")
    return LabeledDataset(samples=_read_manifest(path, parse_pgm, "pgm images"), format="pgm")


def _ingest_polygons(path: str) -> LabeledDataset:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if isinstance(data, dict):
        data = [data]
    samples = []
    for entry in data:
        verts = np.asarray(entry["vertices"], dtype=float)
        if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
            raise ValidationError("polygon needs at least 3 planar vertices")
        samples.append((verts, str(entry.get("label", ""))))
    return LabeledDataset(samples=samples, format="polygon_json")


def read_ecg_csv(path: str) -> np.ndarray:
    """One ECG sample: a (channels, time) matrix from a plain-text CSV file,
    one channel per row.  The file is opened here and ``np.loadtxt`` reads
    the open handle, so a ``.gz`` or URL path is neither decompressed nor
    fetched.  A cell that is not a number, rows of unequal length, or a file
    with no rows is a ValidationError that names the file."""
    with open(path, "r", encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # no rows: rejected below
        try:
            mat = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"ecg file {path}: {exc}") from None
    if mat.size == 0:
        raise ValidationError(f"ecg file {path} holds no data")
    return mat


def _ingest_ecg(path: str) -> LabeledDataset:
    return LabeledDataset(samples=_read_manifest(path, read_ecg_csv, "ecg sample files"),
                          format="ecg_csv")


# ---------------------------------------------------------------------------
# Featurizations
# ---------------------------------------------------------------------------

def district_embed(polygon: np.ndarray, n_samples: int) -> np.ndarray:
    """Arc-length resampling of a closed polygon to a complex signal:
    n equally spaced boundary points, centroid at 0, unit perimeter.  One
    point has no perimeter, so an ``n_samples`` below 2 is a ValidationError."""
    n_samples = _require_integer("n_samples", n_samples, 1)
    if n_samples < 2:
        raise ValidationError(f"n_samples must be at least 2, got {n_samples}")
    verts = np.asarray(polygon, dtype=float)
    if verts.ndim != 2 or verts.shape[1] != 2 or verts.shape[0] < 3:
        raise ValidationError("polygon needs at least 3 planar vertices")
    closed = np.vstack([verts, verts[:1]])
    seg = np.diff(closed, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    perimeter = float(seg_len.sum())
    if perimeter <= 0:
        raise ValidationError("degenerate polygon (zero perimeter)")
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    targets = np.arange(n_samples) * perimeter / n_samples
    idx = np.searchsorted(cum, targets, side="right") - 1
    idx = np.clip(idx, 0, len(seg_len) - 1)
    frac = (targets - cum[idx]) / np.where(seg_len[idx] > 0, seg_len[idx], 1.0)
    pts = closed[idx] + frac[:, None] * seg[idx]
    pts = pts - pts.mean(axis=0)
    rolled = np.roll(pts, -1, axis=0)
    sampled_perimeter = float(np.linalg.norm(rolled - pts, axis=1).sum())
    if sampled_perimeter <= 0:
        raise ValidationError("degenerate polygon after resampling")
    pts /= sampled_perimeter
    return pts[:, 0] + 1j * pts[:, 1]


def ecg_lift(x: np.ndarray, w: int) -> np.ndarray:
    """Lift a (c, t) matrix to the (c, w, t - w + 1) tensor of sliding windows,
    each window de-meaned per channel (discards trend)."""
    w = _require_integer("w", w, 1)
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValidationError("expected a channels x time matrix")
    c, t = x.shape
    if w > t:
        raise ValidationError("need t >= w >= 1")
    tensor = np.empty((c, w, t - w + 1))
    for j in range(w):
        tensor[:, j] = x[:, j:j + t - w + 1]
    tensor -= tensor.mean(axis=1, keepdims=True)
    return tensor


def texture_features(image: np.ndarray, levels: Sequence[int], degrees: Sequence[int],
                     hermite: bool = True, rng_seed: int = 0) -> np.ndarray:
    """Multiscale sorted-patch features: for each patch scale 2^l and each
    degree, sort the pixels of every 2^l x 2^l patch, take the inner product
    with the discretized eigenfunction of that degree, and sum over patches.

    With ``hermite=False`` a literal random Gaussian template (same template
    tiled into every patch, sorted once) replaces each eigenfunction; that
    variant is the exact patch-permutation max filter for A/B comparison.
    Levels are integers l >= 0 with 2^l <= side; the image is never written.
    """
    img = np.ascontiguousarray(image, dtype=float)
    if img.ndim != 2 or img.shape[0] != img.shape[1]:
        raise ValidationError("image must be square")
    side = img.shape[0]
    if side & (side - 1):
        raise ValidationError("image side must be a power of two")
    levels = [_require_integer("level", lev, 0) for lev in levels]
    degrees = list(degrees)
    if not levels or not degrees:
        raise ValidationError("levels and degrees must be nonempty")
    if side < 2 ** max(levels):
        raise ValidationError("image smaller than the largest patch scale")
    if hermite:
        for deg in degrees:
            HermiteSpec(degree=deg, length=1)
    else:
        rng = np.random.default_rng(rng_seed)
    # Every level's patches fill one buffer, sorted in place.  It is a copy,
    # never a view: at 2^l == side the patch reshape is the caller's image.
    buf = np.empty(side * side)
    feats = []
    for lev in levels:
        s = 2 ** lev
        n = side // s
        patches = buf.reshape(n * n, s * s)
        np.copyto(patches.reshape(n, n, s, s), img.reshape(n, s, n, s).swapaxes(1, 2))
        patches.sort(axis=1)
        for deg in degrees:
            v = _hermite_grid(deg, s * s) if hermite else np.sort(rng.standard_normal(s * s))
            feats.append(float((patches @ v).sum()))
    return np.asarray(feats)


# ---------------------------------------------------------------------------
# PCA / LDA
# ---------------------------------------------------------------------------

def pca_fit(features: np.ndarray, k: int) -> tuple:
    """Mean and top-k orthonormal principal directions of the sample
    covariance, with the deterministic sign convention that each component's
    largest-magnitude coordinate is positive."""
    x = np.asarray(features, dtype=float)
    n, f = x.shape
    if k > min(n - 1, f) or k < 1:
        raise ValidationError(f"need 1 <= k <= min(N - 1, F) = {min(n - 1, f)}")
    mean = x.mean(axis=0)
    _, _, vt = np.linalg.svd(x - mean, full_matrices=False)
    basis = vt[:k].T
    for j in range(k):
        lead = np.argmax(np.abs(basis[:, j]))
        if basis[lead, j] < 0:
            basis[:, j] = -basis[:, j]
    return mean, basis


def pca_transform(features: np.ndarray, mean: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return (np.atleast_2d(features) - mean) @ basis


def lda_fit(features: np.ndarray, labels: Sequence[str], reg_scale: float = 1e-6) -> dict:
    """Pooled-covariance linear discriminant with ridge regularization
    lambda = reg_scale * trace / F.  With one sample per class the pooled
    covariance is empty and the model falls back to nearest class mean."""
    x = np.asarray(features, dtype=float)
    labels = [str(l) for l in labels]
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise ValidationError("need at least two classes")
    n, f = x.shape
    means = np.stack([x[[l == c for l in labels]].mean(axis=0) for c in classes])
    counts = np.array([sum(l == c for l in labels) for c in classes])
    if np.any(counts < 1):
        raise ValidationError("every class needs at least one sample")
    nearest_mean = bool(n <= len(classes))
    if nearest_mean:
        precision = np.eye(f)
        log_priors = np.zeros(len(classes))
    else:
        scatter = np.zeros((f, f))
        for c, mu in zip(classes, means):
            xc = x[[l == c for l in labels]] - mu
            scatter += xc.T @ xc
        cov = scatter / (n - len(classes))
        lam = reg_scale * np.trace(cov) / f
        cov = cov + lam * np.eye(f)
        try:
            precision = np.linalg.inv(cov)
        except np.linalg.LinAlgError as exc:
            raise NumericFailure(f"singular pooled covariance: {exc}") from exc
        log_priors = np.log(counts / n)
    return {"type": "lda", "classes": classes, "means": means,
            "precision": precision, "log_priors": log_priors,
            "nearest_mean": nearest_mean}


def lda_predict(model: dict, features: np.ndarray) -> list:
    x = np.atleast_2d(np.asarray(features, dtype=float))
    means = np.asarray(model["means"], dtype=float)
    prec = np.asarray(model["precision"], dtype=float)
    log_priors = np.asarray(model["log_priors"], dtype=float)
    pm = means @ prec                                   # (C, F)
    scores = x @ pm.T - 0.5 * np.sum(pm * means, axis=1) + log_priors
    picks = np.argmax(scores, axis=1)                   # ties: first = smallest label
    classes = model["classes"]
    return [classes[i] for i in picks]


# ---------------------------------------------------------------------------
# Joint template + hinge classifier training
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int = 150
    learning_rate: float = 0.5
    ridge: float = 1e-3
    rng_seed: int = 0
    freeze_templates: bool = False   # optimize only the convex (w, b) slice


def _hinge_loss(feats: np.ndarray, y: np.ndarray, w: np.ndarray, b: float,
                ridge: float) -> float:
    margins = y * (feats @ w + b)
    return float(np.mean(np.maximum(0.0, 1.0 - margins)) + ridge * float(w @ w))


def train_svm_templates(dataset: LabeledDataset, group: GroupAction, n_templates: int,
                        config: Optional[TrainConfig] = None) -> "PipelineModel":
    """Jointly optimize max-filter templates and a linear hinge classifier by
    projected subgradient descent (step eta_0 / sqrt(t), full batch).

    The settings are checked first: ValidationError for fewer than one
    template or epoch, a learning rate that is not positive and finite, or
    a ridge that is not non-negative and finite (a negative one leaves the
    objective unbounded below).  The samples are validated and their norms
    taken once.  The templates train in the form the kind record's
    ``training`` gives them (see :class:`maxfilt.groups.Kind`): whole
    templates prepare the bank of each epoch's templates
    (:class:`maxfilt.core.FilterBank`); sliding-window templates train as
    the one slice each lives on, and their (c, w, T)
    tensors are built once, for the returned model.  Each epoch evaluates
    the templates on all samples in one engine call (what
    :func:`maxfilt.core.bank_argmax` runs) and forms the template
    subgradients from its witnesses.  The returned model holds the averaged
    iterates; the loss history of the running iterate and the initial/final
    losses of the averaged one are recorded in the config snapshot.
    """
    config = config or TrainConfig()
    n_templates = _require_integer("n_templates", n_templates, 1)
    _require_integer("epochs", config.epochs, 1)
    if not 0 < config.learning_rate < math.inf:
        raise ValidationError(
            f"learning_rate must be positive and finite, got {config.learning_rate!r}")
    if not 0 <= config.ridge < math.inf:
        raise ValidationError(f"ridge must be non-negative and finite, got {config.ridge!r}")
    labels = dataset.labels
    classes = sorted(set(labels))
    if len(classes) != 2:
        raise ValidationError("hinge training requires exactly two classes")
    y = np.array([1.0 if l == classes[1] else -1.0 for l in labels])
    xs = as_operands(group, dataset.raws)
    nx = _vector_norms(xs)
    rng = np.random.default_rng(config.rng_seed)
    run = groups.kind_of(group).training(
        group, np.stack([groups.random_template(group, rng) for _ in range(n_templates)]))
    params = run.params
    # Alternating nonzero weights break the cold start: template subgradients
    # are proportional to w, so an all-zero init would freeze the templates.
    w = np.array([(-1.0) ** i for i in range(n_templates)]) / n_templates
    b = 0.0

    def loss_at(params, w, b):
        return _hinge_loss(run.evaluate(params, xs, None)[0], y, w, b, config.ridge)

    initial_loss = loss_at(params, w, b)
    w_sum = np.zeros_like(w)
    b_sum = 0.0
    p_sum = np.zeros_like(params)
    history = []
    n = len(xs)
    for t in range(1, config.epochs + 1):
        feats, witnesses = run.evaluate(params, xs, nx)
        loss = _hinge_loss(feats, y, w, b, config.ridge)
        if not math.isfinite(loss):
            raise NumericFailure("training diverged (non-finite loss)")
        history.append(loss)
        margins = y * (feats @ w + b)
        active = margins < 1.0
        gw = 2.0 * config.ridge * w - (feats * (active * y)[:, None]).mean(axis=0)
        gb = -float(np.mean(active * y))
        eta = config.learning_rate / math.sqrt(t)
        if not config.freeze_templates:
            coef = -(active * y)[:, None] * w[None, :]
            gz = run.subgradient(params, xs, witnesses, coef) / n
            params = params - eta * gz
        w = w - eta * gw
        b = b - eta * gb
        w_sum += w
        b_sum += b
        p_sum += params

    w_avg = w_sum / config.epochs
    b_avg = b_sum / config.epochs
    p_avg = p_sum / config.epochs
    final_loss = loss_at(p_avg, w_avg, b_avg)
    z_avg = run.templates(p_avg)
    tmpl = [Template(vector=z, group_kind=group.kind, label=f"trained-{i}")
            for i, z in enumerate(z_avg)]
    return PipelineModel(
        templates=tmpl, pca_mean=None, pca_basis=None,
        classifier={"type": "svm", "weights": w_avg, "bias": b_avg,
                    "labels": classes},
        group=group,
        config={"featurizer": "filter_bank", "epochs": config.epochs,
                "learning_rate": config.learning_rate, "ridge": config.ridge,
                "rng_seed": config.rng_seed, "initial_loss": initial_loss,
                "final_loss": final_loss, "loss_history": history})


def train_one_vs_rest_templates(dataset: LabeledDataset, group: GroupAction,
                                n_templates: int,
                                config: Optional[TrainConfig] = None) -> list:
    """Minimal multiclass extension: one binary model per class against the
    rest.  Returns (class, model) pairs; predict with
    :func:`predict_one_vs_rest`."""
    classes = sorted(set(dataset.labels))
    if len(classes) < 2:
        raise ValidationError("need at least two classes")
    out = []
    for cls in classes:
        relabeled = LabeledDataset(
            samples=[(x, "pos" if lab == cls else "neg") for x, lab in dataset.samples],
            format=dataset.format)
        out.append((cls, train_svm_templates(relabeled, group, n_templates, config)))
    return out


def predict_one_vs_rest(models: list, raw) -> str:
    best_cls, best_score = None, -math.inf
    for cls, model in models:
        feats = model_features(model, raw)
        score = float(np.asarray(model.classifier["weights"]) @ feats
                      + model.classifier["bias"])
        if score > best_score:
            best_cls, best_score = cls, score
    return best_cls


def make_planted_window_dataset(n_per_class: int, c: int, w: int, t: int,
                                noise: float, rng_seed: int,
                                motif_seed: Optional[int] = None) -> LabeledDataset:
    """Synthetic two-motif dataset for the sliding-window group: each sample
    is Gaussian noise with one of two fixed unit motifs planted in a random
    slice.  Pass the same ``motif_seed`` to draw train/test splits around the
    same pair of motifs."""
    rng = np.random.default_rng(rng_seed)
    motif_rng = np.random.default_rng(rng_seed if motif_seed is None else motif_seed)
    motifs = []
    for _ in range(2):
        m = motif_rng.standard_normal((c, w))
        motifs.append(m / np.linalg.norm(m))
    samples = []
    for cls, (name, motif) in enumerate(zip(("neg", "pos"), motifs)):
        for _ in range(n_per_class):
            x = noise * rng.standard_normal((c, w, t))
            x[:, :, int(rng.integers(t))] += motif
            samples.append((x, name))
    order = rng.permutation(len(samples))
    return LabeledDataset(samples=[samples[i] for i in order], format="planted")


# ---------------------------------------------------------------------------
# Model container and serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PipelineModel:
    """Frozen fitted bundle: templates, optional PCA, classifier, config.  A
    filter-bank model prepares its ``bank`` (a :class:`maxfilt.core.FilterBank`)
    once, when it is built (at train time or by :func:`load_model`), and
    checks there that an SVM has one weight per feature."""

    templates: list
    pca_mean: Optional[np.ndarray]
    pca_basis: Optional[np.ndarray]
    classifier: dict
    group: Optional[GroupAction]
    config: dict
    bank: Optional[FilterBank] = field(init=False, default=None, repr=False)

    def __post_init__(self):
        if self.config.get("featurizer", "filter_bank") != "filter_bank" or self.group is None:
            return
        object.__setattr__(self, "bank", FilterBank(self.group, self.templates))
        n_feats = len(self.templates) if self.pca_basis is None else self.pca_basis.shape[1]
        weights = np.shape(self.classifier.get("weights"))
        if self.classifier.get("type") == "svm" and weights != (n_feats,):
            raise ValidationError(f"SVM weights of shape {weights} for {n_feats} features")


def group_to_jsonable(group: Optional[GroupAction]) -> Optional[dict]:
    """``{"kind": ..., field: value, ...}`` over the descriptor's fields."""
    if group is None:
        return None
    groups.kind_of(group)                        # unsupported kinds raise
    return {"kind": group.kind, **{f.name: to_jsonable(getattr(group, f.name))
                                   for f in dataclasses.fields(group)}}


def group_from_jsonable(data: Optional[dict]) -> Optional[GroupAction]:
    """The descriptor :func:`group_to_jsonable` wrote; ValidationError for
    anything else, since model files come from outside."""
    if data is None:
        return None
    if not isinstance(data, dict):
        raise ValidationError(f"model group must be an object, got {data!r}")
    kind = data.get("kind")
    cls = groups.DESCRIPTORS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValidationError(f"unknown group kind {kind!r}")
    try:
        return cls(**{f.name: data[f.name] for f in dataclasses.fields(cls)})
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:      # a field missing or mistyped
        raise ValidationError(f"malformed model group {data!r}: {exc!r}") from exc


def save_model(model: PipelineModel, path: str) -> None:
    doc = {
        "format": MODEL_FORMAT,
        "group": group_to_jsonable(model.group),
        "templates": [t.to_dict() for t in model.templates],
        "pca": None if model.pca_mean is None else {
            "mean": model.pca_mean, "basis": model.pca_basis},
        "classifier": model.classifier,
        "config": model.config,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_jsonable(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_model(path: str) -> PipelineModel:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("format") != MODEL_FORMAT:
        raise ValidationError(f"unsupported model format {doc.get('format')!r}")
    # Classifier and PCA arrays have at most two axes: none of their lists is a pair.
    classifier = dict(doc["classifier"])
    for key in ("weights", "means", "precision", "log_priors"):
        if key in classifier:
            classifier[key] = array_from_jsonable(classifier[key], ndim=2)
    pca = doc.get("pca")
    basis = None if pca is None else array_from_jsonable(pca["basis"], ndim=2)
    if basis is not None:
        gram = basis.T @ basis
        if np.max(np.abs(gram - np.eye(basis.shape[1]))) > 1e-9:
            raise ValidationError("model PCA basis columns are not orthonormal")
    return PipelineModel(
        templates=[Template.from_dict(t) for t in doc["templates"]],
        pca_mean=None if pca is None else array_from_jsonable(pca["mean"], ndim=2),
        pca_basis=basis,
        classifier=classifier,
        group=group_from_jsonable(doc.get("group")),
        config=doc.get("config", {}),
    )


# ---------------------------------------------------------------------------
# High-level fit / predict
# ---------------------------------------------------------------------------

def fit_texture_model(images: Sequence[np.ndarray], labels: Sequence[str],
                      levels: Sequence[int], degrees: Sequence[int],
                      pca_k: int = 25, hermite: bool = True,
                      rng_seed: int = 0) -> PipelineModel:
    """Texture pipeline: multiscale sorted-patch features, PCA (capped at the
    feasible rank), then pooled-covariance LDA."""
    feats = np.stack([texture_features(img, levels, degrees, hermite=hermite,
                                       rng_seed=rng_seed) for img in images])
    return fit_texture_features(feats, labels, levels, degrees, pca_k, hermite, rng_seed)


def fit_texture_features(feats: np.ndarray, labels: Sequence[str], levels: Sequence[int],
                         degrees: Sequence[int], pca_k: int = 25, hermite: bool = True,
                         rng_seed: int = 0) -> PipelineModel:
    """:func:`fit_texture_model` on features already extracted: row i holds
    the :func:`texture_features` of image i, taken with these arguments."""
    n, f = feats.shape
    k_eff = min(pca_k, n - 1, f)
    mean, basis = pca_fit(feats, k_eff)
    projected = pca_transform(feats, mean, basis)
    lda = lda_fit(projected, labels)
    return PipelineModel(
        templates=[], pca_mean=mean, pca_basis=basis, classifier=lda, group=None,
        config={"featurizer": "texture", "levels": list(levels),
                "degrees": list(degrees), "hermite": hermite,
                "rng_seed": rng_seed, "pca_k_requested": pca_k, "pca_k": k_eff})


def model_features(model: PipelineModel, raw) -> np.ndarray:
    kind = model.config.get("featurizer", "filter_bank")
    if kind == "texture":
        feats = texture_features(raw, model.config["levels"], model.config["degrees"],
                                 hermite=model.config.get("hermite", True),
                                 rng_seed=model.config.get("rng_seed", 0))
    elif kind == "filter_bank":
        if model.group is None:
            raise ValidationError("model lacks a group binding")
        feats = model.bank.values([raw])[0]
    else:
        raise ValidationError(f"unknown featurizer {kind!r}")
    if model.pca_mean is not None:
        feats = pca_transform(feats, model.pca_mean, model.pca_basis)[0]
    return feats


def model_predict(model: PipelineModel, raw) -> str:
    feats = model_features(model, raw)
    clf = model.classifier
    if clf["type"] == "svm":
        score = float(np.asarray(clf["weights"]) @ feats + clf["bias"])
        return clf["labels"][1] if score >= 0 else clf["labels"][0]
    if clf["type"] == "lda":
        return lda_predict(clf, feats)[0]
    raise ValidationError(f"unknown classifier type {clf['type']!r}")
