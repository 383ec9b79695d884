import dataclasses
import json
import math
import os

import numpy as np
import pytest

import maxfilt as mf
from maxfilt import pipeline
from maxfilt.pipeline import (LabeledDataset, TrainConfig, district_embed, ecg_lift,
                              fit_texture_model, ingest, lda_fit, lda_predict,
                              load_model, make_planted_window_dataset, model_predict,
                              parse_pgm, pca_fit, pca_transform, save_model,
                              texture_features, train_svm_templates, write_pgm)
from maxfilt.templates import _hermite_grid
from conftest import sign_group


def make_texture_field(side, smooth, rng):
    """Stationary Gaussian field: white noise optionally smoothed by a
    circular Gaussian kernel, mapped into [0, 1]."""
    noise = rng.standard_normal((side, side))
    if smooth > 0:
        fx = np.fft.fftfreq(side)
        gauss = np.exp(-2 * (np.pi * smooth) ** 2
                       * (fx[:, None] ** 2 + fx[None, :] ** 2))
        noise = np.real(np.fft.ifft2(np.fft.fft2(noise) * gauss))
        noise /= noise.std()
    return np.clip(0.5 + 0.15 * noise, 0.0, 1.0)


class TestIngest:
    def test_csv_json_vectors(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text('vector,label\n"[1.0, 2.0]",a\n"[3.0, 4.0]",b\n')
        ds = ingest(str(p), "csv")
        assert ds.labels == ["a", "b"]
        np.testing.assert_allclose(ds.raws[0], [1.0, 2.0])

    def test_csv_numeric_columns(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,f3,label\n1,2,3,pos\n4,5,6,neg\n")
        ds = ingest(str(p), "csv")
        assert ds.labels == ["pos", "neg"]
        np.testing.assert_allclose(ds.raws[1], [4.0, 5.0, 6.0])

    def test_csv_inconsistent_rows_rejected(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,label\n1,2,a\n1,2,3,b\n")
        with pytest.raises(mf.ValidationError):
            ingest(str(p), "csv")

    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(8, 8))
        p = tmp_path / "im-0.pgm"
        write_pgm(str(p), img)
        back = parse_pgm(str(p))
        assert back.shape == (8, 8)
        assert np.max(np.abs(back - img)) <= 1.0 / 255
        ds = ingest(str(p), "pgm")
        assert ds.labels == ["im"]

    def test_pgm_rejects_non_power_of_two(self, tmp_path):
        p = tmp_path / "bad.pgm"
        write_pgm(str(p), np.zeros((6, 6)))
        with pytest.raises(mf.ValidationError):
            parse_pgm(str(p))

    def test_pgm_manifest(self, tmp_path):
        rng = np.random.default_rng(1)
        entries = []
        for i, lab in enumerate(("grass", "rock")):
            name = f"{lab}-{i}.pgm"
            write_pgm(str(tmp_path / name), rng.uniform(size=(8, 8)))
            entries.append({"path": name, "label": lab})
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"samples": entries}))
        ds = ingest(str(manifest), "pgm")
        assert ds.labels == ["grass", "rock"]

    def test_polygon_json(self, tmp_path):
        p = tmp_path / "poly.json"
        p.write_text(json.dumps({"label": "tri", "vertices": [[0, 0], [1, 0], [0, 1]]}))
        ds = ingest(str(p), "polygon_json")
        assert ds.labels == ["tri"]
        assert ds.raws[0].shape == (3, 2)

    def test_degenerate_polygon_rejected(self, tmp_path):
        p = tmp_path / "poly.json"
        p.write_text(json.dumps({"label": "pt", "vertices": [[0, 0], [1, 1]]}))
        with pytest.raises(mf.ValidationError):
            ingest(str(p), "polygon_json")

    def test_ecg_manifest(self, tmp_path):
        rng = np.random.default_rng(2)
        entries = []
        for i, lab in enumerate(("mi", "healthy")):
            name = f"ecg{i}.csv"
            mat = rng.standard_normal((3, 20))
            np.savetxt(str(tmp_path / name), mat, delimiter=",")
            entries.append({"path": name, "label": lab})
        manifest = tmp_path / "ecg.json"
        manifest.write_text(json.dumps({"samples": entries}))
        ds = ingest(str(manifest), "ecg_csv")
        assert ds.raws[0].shape == (3, 20)
        assert ds.labels == ["mi", "healthy"]

    def test_unknown_format(self):
        with pytest.raises(mf.ValidationError):
            ingest("whatever", "parquet")


class TestReadEcgCsv:
    """``read_ecg_csv`` reads what ``np.loadtxt`` reads from the path."""

    @pytest.mark.parametrize("fmt", ["%.9g", "%.18e"])
    @pytest.mark.parametrize("shape", [(3, 20), (1, 7), (4, 1)])
    @pytest.mark.parametrize("final_newline", [True, False])
    def test_same_matrix_as_loadtxt(self, tmp_path, fmt, shape, final_newline):
        path = tmp_path / "s.csv"
        mat = np.random.default_rng(sum(shape)).standard_normal(shape) * 1e3
        np.savetxt(str(path), mat, delimiter=",", fmt=fmt)
        if not final_newline:
            path.write_text(path.read_text().rstrip("\n"))
        got = pipeline.read_ecg_csv(str(path))
        want = np.loadtxt(str(path), delimiter=",", ndmin=2)
        assert got.shape == want.shape == shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("text", ["1,2,3\n4,x,6\n", "1,2\n3,4,5\n", "1,,3\n", "", "\n\n"],
                             ids=["bad-cell", "ragged", "blank-cell", "empty", "blank-lines"])
    def test_malformed_file_names_itself(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(mf.ValidationError, match="bad.csv"):
            pipeline.read_ecg_csv(str(path))


class TestDistrictEmbed:
    UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

    def test_square_resamples_to_corners(self):
        z = district_embed(self.UNIT_SQUARE, 4)
        # corners of the square, centered and scaled to unit perimeter
        expected = (self.UNIT_SQUARE - 0.5) / 1.0
        expected = expected / 4.0 * 1.0
        got = np.stack([z.real, z.imag], axis=1)
        # perimeter of sampled polygon is 1
        per = np.linalg.norm(np.roll(got, -1, axis=0) - got, axis=1).sum()
        assert per == pytest.approx(1.0, abs=1e-9)
        np.testing.assert_allclose(np.sort(np.abs(z)), np.sort(np.abs(
            (expected[:, 0] + 1j * expected[:, 1]))), atol=1e-9)

    def test_centroid_and_perimeter_normalized(self):
        rng = np.random.default_rng(3)
        angles = np.sort(rng.uniform(0, 2 * np.pi, 7))
        poly = np.stack([3 * np.cos(angles) + 1, 2 * np.sin(angles) - 4], axis=1)
        z = district_embed(poly, 50)
        assert abs(z.mean()) <= 1e-9
        pts = np.stack([z.real, z.imag], axis=1)
        per = np.linalg.norm(np.roll(pts, -1, axis=0) - pts, axis=1).sum()
        assert per == pytest.approx(1.0, abs=1e-9)

    def test_rigid_motions_land_in_same_orbit(self):
        n = 8
        group = mf.ShiftAndConjugate(n)
        base = district_embed(self.UNIT_SQUARE, n)
        theta = 0.83
        rot = np.array([[math.cos(theta), -math.sin(theta)],
                        [math.sin(theta), math.cos(theta)]])
        moved = self.UNIT_SQUARE @ rot.T
        reflected = moved @ np.diag([1.0, -1.0])
        relabeled = np.roll(reflected, 2, axis=0)
        other = district_embed(relabeled, n)
        assert mf.quotient_distance(group, base, other) <= 1e-6

    @pytest.mark.parametrize("n_samples", [0, -3, 2.5, True, "8"])
    def test_sample_count_is_a_positive_integer(self, n_samples):
        with pytest.raises(mf.ValidationError, match="n_samples must be a positive integer"):
            district_embed(self.UNIT_SQUARE, n_samples)

    def test_one_sample_is_rejected_by_name(self):
        with pytest.raises(mf.ValidationError, match="n_samples must be at least 2, got 1"):
            district_embed(self.UNIT_SQUARE, 1)
        assert district_embed(self.UNIT_SQUARE, 2).shape == (2,)

    def test_numpy_sample_count(self):
        assert np.array_equal(district_embed(self.UNIT_SQUARE, np.int64(6)),
                              district_embed(self.UNIT_SQUARE, 6))


class TestEcgLift:
    def test_constant_channel_zeroes_out(self):
        x = np.full((2, 10), 3.0)
        tensor = ecg_lift(x, 4)
        assert tensor.shape == (2, 4, 7)
        assert np.max(np.abs(tensor)) == 0.0

    def test_single_position(self):
        x = np.array([[1.0, 2.0, 3.0]])
        tensor = ecg_lift(x, 3)
        assert tensor.shape == (1, 3, 1)
        np.testing.assert_allclose(tensor[0, :, 0], [-1.0, 0.0, 1.0])

    def test_small_example(self):
        tensor = ecg_lift(np.array([[1.0, 2.0, 4.0]]), 2)
        np.testing.assert_allclose(tensor[0, :, 0], [-0.5, 0.5])
        np.testing.assert_allclose(tensor[0, :, 1], [-1.0, 1.0])

    def test_window_too_long_rejected(self):
        with pytest.raises(mf.ValidationError):
            ecg_lift(np.zeros((1, 3)), 4)

    @pytest.mark.parametrize("w", [0, -1, 2.0, False])
    def test_width_is_a_positive_integer(self, w):
        with pytest.raises(mf.ValidationError, match="w must be a positive integer"):
            ecg_lift(np.zeros((1, 3)), w)

    def test_fiber_means_vanish(self):
        rng = np.random.default_rng(4)
        tensor = ecg_lift(rng.standard_normal((3, 40)), 7)
        assert np.max(np.abs(tensor.mean(axis=1))) <= 1e-9

    @staticmethod
    def reference_lift(x, w):
        """The strided-view formula :func:`ecg_lift` replaced, whose tensors
        it must reproduce bit for bit."""
        x = np.asarray(x, dtype=float)
        windows = np.lib.stride_tricks.sliding_window_view(x, w, axis=1)
        tensor = windows.transpose(0, 2, 1).astype(float).copy()
        tensor -= tensor.mean(axis=1, keepdims=True)
        return tensor

    @pytest.mark.parametrize("case", ["w=1", "w=t", "fortran", "strided", "integer", "workload"])
    def test_matches_the_strided_view_formula(self, case):
        rng = np.random.default_rng(41)
        x, w = rng.standard_normal((3, 209)), 10
        if case == "w=1":
            w = 1
        elif case == "w=t":
            w = x.shape[1]
        elif case == "fortran":
            x = np.asfortranarray(x)
        elif case == "strided":
            x = rng.standard_normal((7, 420))[::2, ::2]
        elif case == "integer":
            x = rng.integers(-50, 50, size=(3, 209))
        got, want = ecg_lift(x, w), self.reference_lift(x, w)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def reference_texture_features(image, levels, degrees, hermite=True, rng_seed=0):
    """The per-level loop that :func:`texture_features` replaced: a fresh
    patch copy and a fresh ``np.sort`` per level, with the same pairwise sum
    over patches and product.  Its features are the values the buffer loop
    must reproduce bit for bit."""
    img = np.asarray(image, dtype=float)
    side = img.shape[0]
    rng = np.random.default_rng(rng_seed)
    feats = []
    for lev in levels:
        s = 2 ** lev
        patches = (img.reshape(side // s, s, side // s, s)
                   .swapaxes(1, 2).reshape(-1, s * s))
        col = np.sort(patches, axis=1)
        while len(col) > 1:
            col = col[:len(col) // 2] + col[len(col) // 2:]
        for deg in degrees:
            if hermite:
                spec = mf.HermiteSpec(degree=deg, length=s * s)
                v = _hermite_grid(spec.degree, spec.length)
            else:
                v = np.sort(rng.standard_normal(s * s))
            feats.append(float((col[0] * v).sum()))
    return np.asarray(feats)


def _run_child(script, **env):
    """The JSON line ``script`` prints in a fresh interpreter that imports
    this package, with no BLAS or OpenMP thread setting but ``env``."""
    import subprocess
    import sys
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(mf.__file__)))
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, base.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**base, **env})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _texture_cases():
    rng = np.random.default_rng(21)
    smooth = make_texture_field(32, 1.5, rng)
    return {
        "field": smooth,
        "quantized-8bit": np.round(smooth * 255.0) / 255.0,
        "signed-zeros": rng.choice([-0.0, 0.0, 0.25, -0.5], size=(32, 32)),
        "int64": rng.integers(-300, 300, size=(32, 32)),
        "uint8": rng.integers(0, 256, size=(32, 32), dtype=np.uint8),
    }


class TestTextureFeatures:
    def test_degree_zero_reads_pixel_sum(self):
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(16, 16))
        feats = texture_features(img, levels=[2, 3], degrees=[0])
        np.testing.assert_allclose(feats, img.sum(), rtol=1e-12)

    def test_constant_image_odd_degree_vanishes(self):
        img = np.full((16, 16), 0.7)
        feats = texture_features(img, levels=[2, 3, 4], degrees=[1])
        np.testing.assert_allclose(feats, 0.0, atol=1e-9)

    def test_matches_per_patch_sorted_inner_product(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(size=(4, 4))
        feats = texture_features(img, levels=[2], degrees=[0, 1])
        v0 = mf.hermite_template(mf.HermiteSpec(0, 16)).vector
        v1 = mf.hermite_template(mf.HermiteSpec(1, 16)).vector
        pixels = img.ravel()
        # the sorted inner product is the full-patch permutation max filter
        perm = mf.FullPermutation(len(pixels))
        assert feats[0] == pytest.approx(mf.max_filter(perm, v0, pixels).value, rel=1e-12)
        assert feats[1] == pytest.approx(mf.max_filter(perm, v1, pixels).value, rel=1e-12)

    def test_feature_length(self):
        img = np.zeros((16, 16))
        feats = texture_features(img, levels=[2, 3, 4], degrees=range(6))
        assert feats.shape == (18,)

    def test_invariant_to_within_patch_shuffles(self):
        rng = np.random.default_rng(7)
        img = rng.uniform(size=(8, 8))
        shuffled = img.copy()
        block = shuffled[0:4, 0:4].ravel()
        shuffled[0:4, 0:4] = block[rng.permutation(16)].reshape(4, 4)
        f1 = texture_features(img, levels=[2], degrees=range(4))
        f2 = texture_features(shuffled, levels=[2], degrees=range(4))
        np.testing.assert_allclose(f1, f2, atol=1e-9)

    def test_random_template_variant(self):
        rng = np.random.default_rng(8)
        img = rng.uniform(size=(8, 8))
        a = texture_features(img, levels=[2], degrees=range(3), hermite=False, rng_seed=1)
        b = texture_features(img, levels=[2], degrees=range(3), hermite=False, rng_seed=1)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("case", sorted(_texture_cases()))
    @pytest.mark.parametrize("levels", [[5, 2, 5, 0], [0, 1, 2, 3, 4, 5]])
    @pytest.mark.parametrize("hermite, seed", [(True, 0), (False, 0), (False, 3)])
    def test_equals_reference_loop_bit_for_bit(self, case, levels, hermite, seed):
        img = _texture_cases()[case]
        feats = texture_features(img, levels, range(6), hermite=hermite, rng_seed=seed)
        ref = reference_texture_features(img, levels, range(6), hermite=hermite, rng_seed=seed)
        assert feats.dtype == ref.dtype and np.array_equal(feats, ref)
        assert np.array_equal(np.signbit(feats), np.signbit(ref))

    @pytest.mark.parametrize("case", sorted(_texture_cases()))
    @pytest.mark.parametrize("hermite", [True, False])
    def test_error_within_the_summation_bound(self, case, hermite):
        # A level's feature is the sum over patches p and ranks i of the
        # terms P[p, i] v[i].  Each term meets log2(n) additions in the
        # pairwise tree over the n patches, one product, and at most m - 1
        # additions in the sum over the m = s^2 ranks, whatever its order.
        # So the error against the exact value is at most gamma_k * sum
        # |terms|, with k = log2(n) + m and gamma_k = k u / (1 - k u),
        # u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms,
        # 2002, sections 3.1 and 4.2).  The exact value is taken in fractions.
        from fractions import Fraction
        img = np.asarray(_texture_cases()[case], dtype=float)
        levels, degrees = range(6), range(6)
        feats = iter(texture_features(img, levels, degrees, hermite=hermite, rng_seed=3))
        rng = np.random.default_rng(3)
        u = Fraction(1, 2 ** 53)
        for lev in levels:
            s = 2 ** lev
            n, m = img.size // (s * s), s * s
            patches = np.sort(img.reshape(-1, s, img.shape[0] // s, s).swapaxes(1, 2)
                              .reshape(n, m), axis=1)
            cols = [sum(map(Fraction, column)) for column in patches.T.tolist()]
            abs_cols = [sum(map(Fraction, column)) for column in np.abs(patches).T.tolist()]
            k = n.bit_length() - 1 + m
            gamma = k * u / (1 - k * u)
            for deg in degrees:
                v = _hermite_grid(deg, m) if hermite else np.sort(rng.standard_normal(m))
                exact = sum(Fraction(vi) * c for vi, c in zip(v.tolist(), cols))
                scale = sum(Fraction(abs(vi)) * c for vi, c in zip(v.tolist(), abs_cols))
                assert abs(Fraction(next(feats)) - exact) <= gamma * scale

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_caller_image_is_never_modified(self, layout):
        # At level log2(side) the patch reshape of a C-ordered image is a view
        # of it; features are taken from a copy, so no layout gets sorted.
        rng = np.random.default_rng(22)
        big = rng.uniform(size=(32, 32))
        big_before = big.copy()
        img = {"C": big[:16, :16].copy(), "F": np.asfortranarray(big[:16, :16]),
               "strided": big[::2, ::2]}[layout]
        before = img.copy(order="K")
        feats = texture_features(img, levels=[4, 2, 0, 4], degrees=range(4))
        assert img.tobytes(order="A") == before.tobytes(order="A")
        assert big.tobytes() == big_before.tobytes()
        assert np.array_equal(feats, reference_texture_features(before, [4, 2, 0, 4], range(4)))

    @pytest.mark.parametrize("levels", [[-1, 2], [1, -1], [1.5], [2.0], [True], [np.float64(2)],
                                        ["2"]])
    def test_bad_levels_rejected(self, levels):
        with pytest.raises(mf.ValidationError, match="level"):
            texture_features(np.zeros((8, 8)), levels=levels, degrees=[0])

    def test_level_zero_and_numpy_integer_levels(self):
        rng = np.random.default_rng(23)
        img = rng.uniform(size=(8, 8))
        assert texture_features(img, levels=[0], degrees=[0])[0] == pytest.approx(img.sum())
        np.testing.assert_array_equal(
            texture_features(img, levels=np.arange(4), degrees=np.arange(3)),
            texture_features(img, levels=[0, 1, 2, 3], degrees=[0, 1, 2]))


class TestTextureFeatureRows:
    """``texture_feature_rows`` is the serial loop over ``texture_features``,
    bit for bit, whatever number of threads runs it.  The thread count is
    forced by patching ``_texture_workers``, and kept small."""

    @staticmethod
    def _images(n):
        cases = _texture_cases()
        return [cases[name] for name in sorted(cases)][:n]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 5])
    @pytest.mark.parametrize("hermite, seed", [(True, 0), (False, 3)])
    def test_rows_equal_the_serial_loop(self, monkeypatch, workers, n, hermite, seed):
        import threading
        images = self._images(n)
        levels, degrees = [5, 2, 5, 0], range(6)
        expected = [texture_features(img, levels, degrees, hermite=hermite, rng_seed=seed)
                    for img in images]
        callers = []
        featurize = pipeline.texture_features
        monkeypatch.setattr(pipeline, "texture_features",
                            lambda *a, **k: callers.append(threading.get_ident())
                            or featurize(*a, **k))
        monkeypatch.setattr(pipeline, "_texture_workers", lambda count: workers)
        rows = pipeline.texture_feature_rows(images, levels, degrees, hermite, seed)
        assert rows.dtype == np.float64 and rows.shape == (n, len(expected[0]))
        assert rows.tobytes() == np.stack(expected).tobytes()
        assert len(callers) == n
        # One thread runs in place; more run on a pool, off the caller's thread.
        on_caller = callers.count(threading.get_ident())
        assert on_caller == (n if workers == 1 else 0)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("bad", [
        [np.zeros((8, 4)), np.zeros((6, 6))],
        [np.zeros((6, 6)), np.zeros((8, 4))],
        [np.zeros((6, 6)), np.zeros(16)]], ids=["non-square", "side", "side-then-1d"])
    def test_first_invalid_image_raises_the_serial_error(self, monkeypatch, workers, bad):
        good = self._images(2)
        images = [good[0], bad[0], good[1], bad[1]]
        with pytest.raises(mf.ValidationError) as serial:
            for img in images:
                texture_features(img, [2, 3], range(3))
        monkeypatch.setattr(pipeline, "_texture_workers", lambda count: workers)
        with pytest.raises(mf.ValidationError) as rows:
            pipeline.texture_feature_rows(images, [2, 3], range(3))
        assert str(rows.value) == str(serial.value)

    def test_workers_are_the_usable_cpus_whatever_else_runs(self, monkeypatch):
        import threading
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(10,))
        other.start()
        try:
            assert [pipeline._texture_workers(n) for n in (1, 2, 5)] == [1, 2, 3]
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_workers_never_exceed_the_images(self):
        for n in (1, 2, 3, 5):
            assert 1 <= pipeline._texture_workers(n) <= n

    def test_one_worker_where_the_cpus_cannot_be_read(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert pipeline._texture_workers(5) == 1

    def test_cold_grid_caches_give_the_same_bits(self, monkeypatch):
        # Three threads fill the shared grid caches at once, switching often.
        import sys
        from maxfilt.templates import _half_grid_quantiles
        images = self._images(5)
        warm = pipeline.texture_feature_rows(images, [0, 1, 2, 3, 4, 5], range(6))
        _hermite_grid.cache_clear()
        _half_grid_quantiles.cache_clear()
        monkeypatch.setattr(pipeline, "_texture_workers", lambda count: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cold = pipeline.texture_feature_rows(images, [0, 1, 2, 3, 4, 5], range(6))
        finally:
            sys.setswitchinterval(interval)
        assert cold.tobytes() == warm.tobytes()

    def test_rows_do_not_depend_on_the_blas_thread_count(self):
        # One child runs BLAS on one thread, the other at its default (one
        # thread per CPU).  Each reports its threads after importing numpy:
        # OpenBLAS starts its workers then.
        script = """
import hashlib, json, os
import numpy as np
from maxfilt import pipeline
threads = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
rng = np.random.default_rng(0)
images = [rng.uniform(size=(256, 256)) for _ in range(3)]
rows = pipeline.texture_feature_rows(images, range(2, 9), range(6))
print(json.dumps({"sha": hashlib.sha256(rows.tobytes()).hexdigest(), "threads": threads}))
"""
        runs = [_run_child(script, **blas) for blas in ({"OPENBLAS_NUM_THREADS": "1"}, {})]
        assert runs[0]["threads"] in (1, None)
        assert runs[0]["sha"] == runs[1]["sha"]
        if not (runs[1]["threads"] or 0) > 1:
            pytest.skip(f"rows equal, but the default BLAS run had {runs[1]['threads']} "
                        "thread(s): nothing was compared across BLAS thread counts")

    def test_texture_model_does_not_depend_on_the_workers(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(24)
        images = [make_texture_field(16, s, rng) for s in (0.0, 1.0) * 3]
        files = []
        for workers in (1, 3):
            monkeypatch.setattr(pipeline, "_texture_workers", lambda count: workers)
            model = fit_texture_model(images, list("ab" * 3), levels=[1, 2, 3],
                                      degrees=range(4), pca_k=3)
            files.append(tmp_path / f"model{workers}.json")
            save_model(model, str(files[-1]))
        assert files[0].read_bytes() == files[1].read_bytes()


class TestPCA:
    def test_line_data_recovers_direction(self):
        rng = np.random.default_rng(9)
        direction = np.array([3.0, 4.0]) / 5.0
        data = np.outer(rng.standard_normal(40), direction)
        _, basis = pca_fit(data, 1)
        assert abs(float(basis[:, 0] @ direction)) == pytest.approx(1.0, abs=1e-12)

    def test_full_rank_reconstruction(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((30, 5))
        mean, basis = pca_fit(data, 5)
        recon = pca_transform(data, mean, basis) @ basis.T + mean
        np.testing.assert_allclose(recon, data, atol=1e-9)

    def test_three_points_pairwise_distances(self):
        pts = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.0, 2.0, 1.0]])
        mean, basis = pca_fit(pts, 2)
        proj = pca_transform(pts, mean, basis)
        for i in range(3):
            for j in range(3):
                assert np.linalg.norm(proj[i] - proj[j]) == pytest.approx(
                    np.linalg.norm(pts[i] - pts[j]), abs=1e-9)

    def test_k_out_of_range_rejected(self):
        with pytest.raises(mf.ValidationError):
            pca_fit(np.zeros((3, 5)), 3)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(11)
        data = rng.standard_normal((20, 4))
        _, b1 = pca_fit(data, 3)
        _, b2 = pca_fit(data.copy(), 3)
        np.testing.assert_array_equal(b1, b2)
        for j in range(3):
            assert b1[np.argmax(np.abs(b1[:, j])), j] > 0


class TestLDA:
    def test_separated_blobs(self):
        rng = np.random.default_rng(12)
        train = np.vstack([rng.standard_normal((200, 3)) + [6, 0, 0],
                           rng.standard_normal((200, 3)) - [6, 0, 0]])
        labels = ["a"] * 200 + ["b"] * 200
        model = lda_fit(train, labels)
        test = np.vstack([rng.standard_normal((200, 3)) + [6, 0, 0],
                          rng.standard_normal((200, 3)) - [6, 0, 0]])
        truth = ["a"] * 200 + ["b"] * 200
        acc = np.mean([p == t for p, t in zip(lda_predict(model, test), truth)])
        assert acc >= 0.99

    def test_single_sample_per_class_falls_back_to_nearest_mean(self):
        model = lda_fit(np.array([[0.0, 0.0], [4.0, 4.0]]), ["a", "b"])
        assert model["nearest_mean"]
        assert lda_predict(model, [[0.5, 0.5]]) == ["a"]
        assert lda_predict(model, [[3.6, 3.9]]) == ["b"]

    def test_identical_distributions_near_chance(self):
        rng = np.random.default_rng(13)
        train = rng.standard_normal((400, 4))
        labels = ["a", "b"] * 200
        model = lda_fit(train, labels)
        test = rng.standard_normal((2000, 4))
        preds = lda_predict(model, test)
        frac_a = np.mean([p == "a" for p in preds])
        assert 0.3 <= frac_a <= 0.7

    def test_tie_goes_to_lexicographically_smallest(self):
        model = lda_fit(np.array([[1.5], [0.5], [-1.5], [-0.5]]), ["b", "b", "a", "a"])
        # class means are exactly +-1, so x = 0 scores both classes equally
        assert lda_predict(model, [[0.0]]) == ["a"]


class TestSVMTraining:
    def test_frozen_templates_loss_decreases_to_zero(self):
        group = sign_group(3)
        rng = np.random.default_rng(14)
        pos = [rng.standard_normal(3) + np.array([4.0, 0, 0]) for _ in range(20)]
        neg = [rng.standard_normal(3) * 0.1 for _ in range(20)]
        ds = LabeledDataset(samples=[(x, "p") for x in pos] + [(x, "n") for x in neg])
        config = TrainConfig(epochs=300, learning_rate=0.2, ridge=0.0,
                             rng_seed=0, freeze_templates=True)
        model = train_svm_templates(ds, group, n_templates=3, config=config)
        history = model.config["loss_history"]
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))
        assert model.config["final_loss"] <= 0.1
        assert model.config["final_loss"] <= model.config["initial_loss"]

    def test_planted_motifs_learned(self):
        train = make_planted_window_dataset(30, c=1, w=6, t=12, noise=0.15,
                                            rng_seed=15, motif_seed=99)
        test = make_planted_window_dataset(40, c=1, w=6, t=12, noise=0.15,
                                           rng_seed=16, motif_seed=99)
        group = mf.SlidingWindowShift(1, 6, 12)
        config = TrainConfig(epochs=100, learning_rate=1.0, ridge=1e-3, rng_seed=17)
        model = train_svm_templates(train, group, n_templates=2, config=config)
        acc = np.mean([model_predict(model, x) == lab for x, lab in test.samples])
        assert acc >= 0.95
        assert model.config["final_loss"] <= model.config["initial_loss"]

    def test_final_loss_never_exceeds_initial_across_seeds(self):
        group = sign_group(2)
        for seed in range(3):
            rng = np.random.default_rng(100 + seed)
            xs = [rng.standard_normal(2) for _ in range(16)]
            labels = ["p" if x[0] > 0 else "n" for x in xs]
            ds = LabeledDataset(samples=list(zip(xs, labels)))
            model = train_svm_templates(ds, group, 2,
                                        TrainConfig(epochs=40, rng_seed=seed))
            assert model.config["final_loss"] <= model.config["initial_loss"]

    def test_one_vs_rest_multiclass(self):
        rng = np.random.default_rng(200)
        group = sign_group(3)
        centers = {"a": np.array([5.0, 0, 0]), "b": np.array([0, 5.0, 0]),
                   "c": np.array([0, 0, 5.0])}
        samples = [(0.3 * rng.standard_normal(3) + mu, lab)
                   for lab, mu in centers.items() for _ in range(15)]
        ds = LabeledDataset(samples=samples)
        models = pipeline.train_one_vs_rest_templates(
            ds, group, 2, TrainConfig(epochs=60, learning_rate=0.5, rng_seed=0))
        assert [cls for cls, _ in models] == ["a", "b", "c"]
        test_pts = [(0.3 * rng.standard_normal(3) + mu, lab)
                    for lab, mu in centers.items() for _ in range(10)]
        acc = np.mean([pipeline.predict_one_vs_rest(models, x) == lab
                       for x, lab in test_pts])
        assert acc >= 0.9

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_detected(self):
        group = sign_group(2)
        rng = np.random.default_rng(18)
        xs = [rng.standard_normal(2) for _ in range(8)]
        ds = LabeledDataset(samples=[(x, "p" if i % 2 else "n") for i, x in enumerate(xs)])
        with pytest.raises(mf.NumericFailure):
            train_svm_templates(ds, group, 2,
                                TrainConfig(epochs=400, learning_rate=1e80, rng_seed=0))

    def test_non_binary_labels_rejected(self):
        ds = LabeledDataset(samples=[(np.zeros(2), "a"), (np.zeros(2), "b"),
                                     (np.zeros(2), "c")])
        with pytest.raises(mf.ValidationError):
            train_svm_templates(ds, sign_group(2), 1)


class TestModelSerialization:
    def test_svm_roundtrip(self, tmp_path):
        train = make_planted_window_dataset(6, c=1, w=4, t=8, noise=0.1, rng_seed=19)
        group = mf.SlidingWindowShift(1, 4, 8)
        model = train_svm_templates(train, group, 2, TrainConfig(epochs=5, rng_seed=20))
        path = str(tmp_path / "model.json")
        save_model(model, path)
        with open(path) as fh:
            assert json.load(fh)["format"] == "maxfilt-model/1"
        back = load_model(path)
        x = train.raws[0]
        assert model_predict(back, x) == model_predict(model, x)

    def test_texture_roundtrip(self, tmp_path):
        rng = np.random.default_rng(21)
        images = [make_texture_field(16, 0.0, rng) for _ in range(4)] + \
                 [make_texture_field(16, 1.2, rng) for _ in range(4)]
        labels = ["rough"] * 4 + ["smooth"] * 4
        model = fit_texture_model(images, labels, levels=[2, 3], degrees=range(4),
                                  pca_k=25)
        assert model.config["pca_k"] == min(25, 7, 8)
        path = str(tmp_path / "texture.json")
        save_model(model, path)
        back = load_model(path)
        for img in images[:2]:
            assert model_predict(back, img) == model_predict(model, img)

    def test_bad_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other/9"}))
        with pytest.raises(mf.ValidationError):
            load_model(str(path))


class TestPreparedModel:
    """A filter-bank model prepares its bank once, at train or load time."""

    @staticmethod
    def trained(kind):
        rng = np.random.default_rng(30)
        group = {"window": mf.SlidingWindowShift(2, 3, 9), "cyclic": mf.CyclicShift(8),
                 "colperm": mf.ColumnPermutation(2, 4)}[kind]
        xs = [rng.standard_normal(getattr(group, "shape", (group.dim,))) for _ in range(10)]
        ds = LabeledDataset(samples=[(x, "ab"[i % 2]) for i, x in enumerate(xs)])
        model = train_svm_templates(ds, group, 3, TrainConfig(epochs=6, rng_seed=31))
        return model, xs

    @pytest.mark.parametrize("kind", ["window", "cyclic", "colperm"])
    def test_features_equal_the_engine_before_and_after_reload(self, kind, tmp_path):
        model, xs = self.trained(kind)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        back = load_model(path)
        for m in (model, back):
            assert isinstance(m.bank, mf.FilterBank)
            for x in xs[:4]:
                want = mf.bank_values(m.group, m.templates, [x])[0]
                assert np.array_equal(pipeline.model_features(m, x), want)

    def test_fields_cannot_be_reassigned(self):
        model, _ = self.trained("cyclic")
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.templates = []
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.bank = None

    def test_bad_models_fail_when_built(self):
        model, _ = self.trained("cyclic")
        fields = dict(templates=model.templates, pca_mean=None, pca_basis=None,
                      classifier=model.classifier, group=model.group, config=model.config)
        few = dict(model.classifier, weights=model.classifier["weights"][:2])
        with pytest.raises(mf.ValidationError, match="weights"):
            pipeline.PipelineModel(**dict(fields, classifier=few))
        bad = [mf.Template(np.full(8, np.nan), group_kind="cyclic")] + model.templates[1:]
        with pytest.raises(mf.ValidationError, match="NaN"):
            pipeline.PipelineModel(**dict(fields, templates=bad))


class TestTexturePipeline:
    def test_fit_is_bit_stable(self):
        rng = np.random.default_rng(23)
        images = [make_texture_field(16, s, rng) for s in (0.0, 0.0, 1.0, 1.0)]
        labels = ["a", "a", "b", "b"]
        m1 = fit_texture_model(images, labels, levels=[2, 3], degrees=range(3), pca_k=2)
        m2 = fit_texture_model(images, labels, levels=[2, 3], degrees=range(3), pca_k=2)
        np.testing.assert_array_equal(m1.pca_basis, m2.pca_basis)
        np.testing.assert_array_equal(m1.pca_mean, m2.pca_mean)
        np.testing.assert_array_equal(m1.classifier["means"], m2.classifier["means"])
        np.testing.assert_array_equal(m1.classifier["precision"],
                                      m2.classifier["precision"])

    def test_two_field_classification(self):
        rng = np.random.default_rng(22)
        train_imgs, train_labels, test_imgs, test_labels = [], [], [], []
        for smooth, lab in ((0.0, "rough"), (1.5, "smooth")):
            for _ in range(6):
                train_imgs.append(make_texture_field(32, smooth, rng))
                train_labels.append(lab)
            for _ in range(10):
                test_imgs.append(make_texture_field(32, smooth, rng))
                test_labels.append(lab)
        model = fit_texture_model(train_imgs, train_labels, levels=[2, 3, 4],
                                  degrees=range(6), pca_k=25)
        acc = np.mean([model_predict(model, img) == lab
                       for img, lab in zip(test_imgs, test_labels)])
        assert acc >= 0.9
