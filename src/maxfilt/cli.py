"""Command-line interface.

JSON reports go to stdout (sorted keys, stable layout), diagnostics to
stderr.  Every stochastic command requires --seed and embeds
{seed, version, config_hash} in its report; identical config + seed produce
byte-identical output apart from the timestamp field.

Exit codes: 0 ok, 2 I/O or parse error, 3 validation error, 4 oracle
mismatch, 5 numeric failure.
"""

from __future__ import annotations

import argparse
import csv as csv_mod
import hashlib
import io
import json
import re
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis, graphs, groups, pipeline, templates as tmod
from .core import (GroupAction, NumericFailure, ShiftAndConjugate, SlidingWindowShift,
                   ValidationError, bank_values, brute_force_max_filter, max_filter, norm)


class OracleMismatch(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Group spec grammar
# ---------------------------------------------------------------------------

GROUP_HELP = "group spec: " + ", ".join(kind.spec for kind in groups.KINDS.values())


def parse_group_spec(spec: str, channels: int | None = None) -> GroupAction:
    """A group descriptor from its compact spec (the forms ``GROUP_HELP``
    lists); a window spec without C takes ``channels``, the data's."""
    name, colon, rest = spec.partition(":")
    if not colon:
        raise ValidationError(f"malformed group spec {spec!r}")
    if name not in groups.KINDS:
        raise ValidationError(f"unknown group kind {name!r} (known: {', '.join(groups.KINDS)})")
    try:
        return groups.from_spec(name, rest, channels)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(f"malformed group spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Shared I/O helpers
# ---------------------------------------------------------------------------

def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_operand(path: str, group: GroupAction) -> np.ndarray:
    """Load a vector/matrix/tensor operand; template files may wrap the array
    in a {vector: ...} template document."""
    data = _load_json(path)
    if isinstance(data, dict) and "vector" in data:
        return tmod.Template.from_dict(data).vector
    arr = np.asarray(data, dtype=float)
    if group.dtype is complex:
        if arr.ndim == 2 and arr.shape[1] == 2:
            return arr[:, 0] + 1j * arr[:, 1]
        raise ValidationError("complex operand must be a list of [re, im] pairs")
    return arr


def _jsonable(value):
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return [[float(v.real), float(v.imag)] for v in value.ravel()]
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return repr(value)


def witness_jsonable(group: GroupAction, witness):
    """A witness in JSON: tuple witnesses as objects keyed by the kind's
    ``witness_keys``, everything else as nested lists and numbers."""
    keys = groups.kind_of(group).witness_keys
    if keys:
        return {key: _jsonable(part) for key, part in zip(keys, witness)}
    return _jsonable(witness)


def _config_hash(args: argparse.Namespace) -> str:
    # Only computation-relevant flags: where the report is written or how it
    # is rendered must not change its identity.
    skip = {"func", "output", "format"}
    payload = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def make_report(args: argparse.Namespace, body: dict, stochastic: bool = False) -> dict:
    doc = dict(body)
    doc["version"] = __version__
    doc["config_hash"] = _config_hash(args)
    if stochastic:
        doc["seed"] = args.seed
    doc["timestamp"] = datetime.now(timezone.utc).isoformat()
    return doc


def _render_table(doc: dict, out) -> None:
    for key in sorted(doc):
        val = doc[key]
        if isinstance(val, (dict, list)):
            val = json.dumps(val, sort_keys=True)
        print(f"{key:24s} {val}", file=out)


def emit(args: argparse.Namespace, doc: dict, to_stdout: bool = False) -> None:
    doc = _jsonable(doc)
    fmt = getattr(args, "format", "json")
    if not to_stdout and getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            if fmt == "table":
                _render_table(doc, fh)
            else:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
    elif fmt == "table":
        _render_table(doc, sys.stdout)
    else:
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_filter(args) -> int:
    group = parse_group_spec(args.group)
    z = load_operand(args.template, group)
    x = load_operand(args.input, group)
    result = max_filter(group, z, x)
    if args.oracle:
        oracle = brute_force_max_filter(group, z, x)
        # Both values round at the scale of |z||x|, so the bound is stated in it.
        bound = 1e-9 * max(1.0, norm(z) * norm(x))
        if oracle.approximate:
            if oracle.value > result.value + bound:
                raise OracleMismatch(
                    f"specialized value {result.value} below grid bound {oracle.value}")
        elif abs(oracle.value - result.value) > bound:
            raise OracleMismatch(
                f"specialized value {result.value} != enumeration {oracle.value}")
    doc = make_report(args, {
        "value": result.value,
        "witnesses": [witness_jsonable(group, w) for w in result.witnesses],
        "approximate": result.approximate,
        "group": args.group})
    emit(args, doc)
    return 0


def cmd_graph_filter(args) -> int:
    tree = graphs.TreeTemplate.from_dict(_load_json(args.tree))
    graph = graphs.WeightedGraph.from_dict(_load_json(args.graph))
    coding = graphs.make_color_coding(graph.n, tree.k, args.seed,
                                      multiplier=args.coding_multiplier)
    result, stats = graphs.mf_tree_dp(tree, graph, coding, return_stats=True)
    if args.oracle:
        oracle = graphs.brute_force_tree_filter(tree, graph)
        if abs(oracle - result.value) > 1e-9:
            raise OracleMismatch(f"dp value {result.value} != injection max {oracle}")
    doc = make_report(args, {
        "value": result.value,
        "witness": [int(v) for v in result.witnesses[0]],
        "approximate": result.approximate,
        "coding_size": coding.size,
        "dp_stats": stats}, stochastic=True)
    emit(args, doc)
    return 0


def _parse_range(spec: str) -> list:
    try:
        if ":" in spec:
            lo, hi = spec.split(":")
            return list(range(groups._size(lo), groups._size(hi) + 1))
        return [groups._size(p) for p in spec.split(",")]
    except ValueError as exc:
        raise ValidationError(f"expected lo:hi or a comma list of integers, got {spec!r}") from exc


def cmd_templates(args) -> int:
    if args.hermite is not None:
        degree = args.degree if args.hermite < 0 else args.hermite
        if degree is None:
            raise ValidationError("--hermite needs a degree (inline or via --degree)")
        t = tmod.hermite_template(tmod.HermiteSpec(degree=degree, length=args.dim))
        doc = make_report(args, {"template": t.to_dict()})
    elif args.sphere is not None:
        bank = tmod.random_sphere_templates(args.sphere, args.dim, args.seed)
        doc = make_report(args, {"templates": [t.to_dict() for t in bank]},
                          stochastic=True)
    elif args.indicator is not None:
        sets = _load_json(args.indicator)
        bank = tmod.indicator_templates(sets, grid=args.dim)
        doc = make_report(args, {"templates": [t.to_dict() for t in bank]})
    else:
        raise ValidationError("choose one of --hermite, --sphere, --indicator")
    emit(args, doc)
    return 0


def cmd_lipschitz(args) -> int:
    group = parse_group_spec(args.group)
    bank = analysis.random_bank(group, args.n, args.seed)
    report = analysis.estimate_lipschitz(group, bank, args.samples, args.seed + 1)
    doc = make_report(args, report.to_dict(), stochastic=True)
    emit(args, doc)
    return 0


def cmd_separation(args) -> int:
    group = parse_group_spec(args.group)
    bank = analysis.random_bank(group, args.n, args.seed)
    report = analysis.separation_test(group, bank, args.trials, args.seed + 1)
    doc = make_report(args, report.to_dict(), stochastic=True)
    emit(args, doc)
    return 0


def cmd_stability(args) -> int:
    grid = args.grid
    h = analysis.gaussian_bump(grid, width=args.bump_width)
    slopes = list(np.linspace(args.min_slope, args.max_slope, args.warps))
    sweep = analysis.stability_sweep(h, grid, slopes, n_modes=args.modes,
                                     rng_seed=args.seed)
    doc = make_report(args, {
        "trend_slope": sweep["trend_slope"],
        "reports": [r.to_dict() for r in sweep["reports"]]}, stochastic=True)
    emit(args, doc)
    return 0


def _load_training_data(args):
    dataset = pipeline.ingest(args.data, args.data_format)
    if args.data_format == "ecg_csv":
        channels = dataset.raws[0].shape[0]
        group = parse_group_spec(args.group, channels=channels)
        # The spec comes from the user: ecg_lift builds (c, w, T) windows only.
        if not isinstance(group, SlidingWindowShift):
            raise ValidationError("ecg data requires a window group")
        lifted = [(pipeline.ecg_lift(x, group.w), lab) for x, lab in dataset.samples]
        if lifted[0][0].shape != group.shape:
            raise ValidationError(
                f"lifted shape {lifted[0][0].shape} does not match group {group.shape}")
        return pipeline.LabeledDataset(samples=lifted, format="window"), group, group.w
    group = parse_group_spec(args.group)
    return dataset, group, None


def cmd_train(args) -> int:
    dataset, group, lift_w = _load_training_data(args)
    config = pipeline.TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                                  ridge=args.ridge, rng_seed=args.seed)
    model = pipeline.train_svm_templates(dataset, group, args.templates, config)
    if lift_w is not None:
        model.config["lift_w"] = lift_w
    pipeline.save_model(model, args.output)
    doc = make_report(args, {
        "model": args.output,
        "initial_loss": model.config["initial_loss"],
        "final_loss": model.config["final_loss"]}, stochastic=True)
    emit(args, doc, to_stdout=True)          # --output holds the model path
    return 0


def cmd_predict(args) -> int:
    model = pipeline.load_model(args.model)
    featurizer = model.config.get("featurizer", "filter_bank")
    if featurizer == "texture":
        raw = pipeline.parse_pgm(args.input)
    elif "lift_w" in model.config:
        mat = np.loadtxt(args.input, delimiter=",", ndmin=2)
        raw = pipeline.ecg_lift(mat, model.config["lift_w"])
    else:
        raw = load_operand(args.input, model.group)
    label = pipeline.model_predict(model, raw)
    emit(args, make_report(args, {"label": label, "input": args.input}))
    return 0


def cmd_district(args) -> int:
    dataset = pipeline.ingest(args.polygons, "polygon_json")
    signals = [pipeline.district_embed(v, args.samples) for v in dataset.raws]
    group = ShiftAndConjugate(args.samples)
    bank = analysis.random_bank(group, args.templates, args.seed)
    feats = bank_values(group, bank, signals)
    k = min(args.pca, feats.shape[0] - 1, feats.shape[1])
    mean, basis = pipeline.pca_fit(feats, k)
    coords = pipeline.pca_transform(feats, mean, basis)
    if args.format == "csv" or (args.output or "").endswith(".csv"):
        buf = io.StringIO()
        writer = csv_mod.writer(buf)
        writer.writerow(["label"] + [f"pc{i + 1}" for i in range(k)])
        for lab, row in zip(dataset.labels, coords):
            writer.writerow([lab] + [f"{v:.12g}" for v in row])
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(buf.getvalue())
            emit(args, make_report(args, {"output": args.output,
                                          "count": len(signals)}, stochastic=True),
                 to_stdout=True)
        else:
            sys.stdout.write(buf.getvalue())
        return 0
    doc = make_report(args, {
        "labels": dataset.labels,
        "coordinates": coords.tolist()}, stochastic=True)
    emit(args, doc)
    return 0


def cmd_texture(args) -> int:
    levels = _parse_range(args.levels)
    degrees = _parse_range(args.degrees)
    if args.extract:
        img = pipeline.parse_pgm(args.image)
        feats = pipeline.texture_features(img, levels, degrees,
                                          hermite=not args.random_templates,
                                          rng_seed=args.seed)
        emit(args, make_report(args, {"features": feats.tolist()}))
        return 0
    dataset = pipeline.ingest(args.manifest, "pgm")
    hermite = not args.random_templates
    feats = np.stack([pipeline.texture_features(img, levels, degrees, hermite=hermite,
                                                rng_seed=args.seed) for img in dataset.raws])
    model = pipeline.fit_texture_features(feats, dataset.labels, levels, degrees,
                                          pca_k=args.pca, hermite=hermite, rng_seed=args.seed)
    pipeline.save_model(model, args.output)
    # Each image's features classified on their own, as ``predict`` would.
    train_acc = np.mean([pipeline.lda_predict(model.classifier, pipeline.pca_transform(
        f, model.pca_mean, model.pca_basis))[0] == lab for f, lab in zip(feats, dataset.labels)])
    doc = make_report(args, {"model": args.output, "classes": model.classifier["classes"],
                             "train_accuracy": float(train_acc)}, stochastic=True)
    emit(args, doc, to_stdout=True)          # --output holds the model path
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxfilt",
        description="Group-invariant max filtering: evaluation, templates, "
                    "graph filters, analysis experiments, classification pipelines.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=False, output=True):
        if seed:
            p.add_argument("--seed", type=int, required=True,
                           help="RNG seed (mandatory for stochastic commands)")
        if output:
            p.add_argument("--output", help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "table"), default="json")

    p = sub.add_parser("filter", help="evaluate one max filter")
    p.add_argument("--group", required=True, help=GROUP_HELP)
    p.add_argument("--template", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against brute force; exit 4 on mismatch")
    common(p)
    p.set_defaults(func=cmd_filter)

    p = sub.add_parser("graph-filter", help="tree-template graph max filter")
    p.add_argument("--tree", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--coding-multiplier", type=float, default=1.0)
    p.add_argument("--oracle", action="store_true")
    common(p, seed=True)
    p.set_defaults(func=cmd_graph_filter)

    p = sub.add_parser("templates", help="generate templates")
    p.add_argument("--hermite", type=int, nargs="?", const=-1, default=None,
                   metavar="DEGREE", help="eigenfunction template "
                   "(degree inline or via --degree)")
    p.add_argument("--degree", type=int, default=None)
    p.add_argument("--sphere", type=int, metavar="COUNT")
    p.add_argument("--indicator", metavar="SETS_JSON")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=cmd_templates)

    p = sub.add_parser("lipschitz", help="estimate bilipschitz constants")
    p.add_argument("--group", required=True, help=GROUP_HELP)
    p.add_argument("--n", type=int, required=True, help="bank size")
    p.add_argument("--samples", type=int, default=1000)
    common(p, seed=True)
    p.set_defaults(func=cmd_lipschitz)

    p = sub.add_parser("separation", help="orbit separation trial")
    p.add_argument("--group", required=True, help=GROUP_HELP)
    p.add_argument("--n", type=int, required=True, help="bank size")
    p.add_argument("--trials", type=int, default=10000)
    common(p, seed=True)
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("stability", help="diffeomorphic distortion sweep")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--warps", type=int, default=20)
    p.add_argument("--min-slope", type=float, default=0.01)
    p.add_argument("--max-slope", type=float, default=0.5)
    p.add_argument("--modes", type=int, default=3)
    p.add_argument("--bump-width", type=float, default=6.0)
    common(p, seed=True)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("train", help="train templates + hinge classifier")
    p.add_argument("--data", required=True, help="dataset file or manifest")
    p.add_argument("--data-format", default="ecg_csv",
                   choices=("ecg_csv", "csv"))
    p.add_argument("--group", required=True, help=GROUP_HELP)
    p.add_argument("--templates", type=int, default=5)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--lr", type=float, default=0.5)
    p.add_argument("--ridge", type=float, default=1e-3)
    common(p, seed=True, output=False)
    p.add_argument("--output", required=True, help="model JSON path")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify one sample with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("district", help="shape-space embedding of polygons")
    p.add_argument("--polygons", required=True)
    p.add_argument("--samples", type=int, default=50)
    p.add_argument("--templates", type=int, default=100)
    p.add_argument("--pca", type=int, default=2)
    common(p, seed=True)
    p.set_defaults(func=cmd_district, format="csv")

    p = sub.add_parser("texture", help="texture features / PCA-LDA model")
    p.add_argument("--manifest", help="pgm manifest for training")
    p.add_argument("--image", help="single pgm for --extract")
    p.add_argument("--extract", action="store_true")
    p.add_argument("--levels", default="2:8")
    p.add_argument("--degrees", default="0:5")
    # argparse reads a separate "-1:2" or "-1,2" as an option, not as the value
    # of --levels or --degrees; here anything that starts with "-" and a digit
    # is a value, so that _parse_range sees (and rejects) it.
    p._negative_number_matcher = re.compile(r"-\d")
    p.add_argument("--pca", type=int, default=25)
    p.add_argument("--random-templates", action="store_true",
                   help="literal random templates instead of eigenfunctions")
    common(p, seed=True, output=False)
    p.add_argument("--output", help="model JSON path (training mode)")
    p.set_defaults(func=cmd_texture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 4
    except (ValidationError,) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3
    except (NumericFailure, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 5
    except (OSError, json.JSONDecodeError, KeyError, UnicodeDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
