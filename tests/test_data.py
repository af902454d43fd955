"""Synthetic data, augmentation pipelines, binary image loading, and exports."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from raftlab import data
from raftlab.data import (
    CIFAR_RECORD_BYTES,
    AugmentationSpec,
    Dataset,
    SyntheticBlobsSpec,
    ViewAugmentation,
    batches_per_epoch,
    draw_augmented_pairs,
    estimate_aug_moments,
    export_dataset_csv,
    load_cifar10,
    make_blobs,
    sample_positive_batch,
)
from raftlab.errors import ConfigError, ContractError, FormatError


class TestBlobs:
    def test_default_dataset_shape_and_labels(self, blobs):
        assert blobs.samples.shape == (400, 8)
        assert blobs.labels.shape == (400,)
        counts = np.bincount(blobs.labels, minlength=4)
        np.testing.assert_array_equal(counts, [100, 100, 100, 100])

    def test_rows_are_unit_norm(self, blobs):
        np.testing.assert_allclose(
            np.linalg.norm(blobs.samples, axis=1), np.ones(400), atol=1e-12
        )

    def test_zero_scatter_collapses_each_class_to_its_center(self):
        ds = make_blobs(SyntheticBlobsSpec(noise_sigma=0.0, per_class=5))
        for cls in range(4):
            rows = ds.samples[ds.labels == cls]
            np.testing.assert_allclose(rows, np.tile(rows[0], (5, 1)), atol=1e-12)

    def test_same_spec_is_deterministic(self):
        a = make_blobs(SyntheticBlobsSpec())
        b = make_blobs(SyntheticBlobsSpec())
        assert a.samples.tobytes() == b.samples.tobytes()
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_center_seed_moves_the_centers(self):
        a = make_blobs(SyntheticBlobsSpec(noise_sigma=0.0))
        b = make_blobs(SyntheticBlobsSpec(noise_sigma=0.0, center_seed=8))
        assert not np.allclose(a.samples, b.samples)


class TestPositiveBatches:
    def test_identity_augmentation_returns_raw_rows(self, blobs):
        batch = sample_positive_batch(blobs, AugmentationSpec(), batch_size=16, step_index=0)
        np.testing.assert_array_equal(batch.x1, batch.x2)
        row_set = {tuple(r) for r in blobs.samples}
        assert all(tuple(r) in row_set for r in batch.x1)

    def test_one_epoch_partitions_the_dataset(self, small_blobs):
        n = len(small_blobs)
        bs = 16
        seen = []
        for k in range(batches_per_epoch(n, bs)):
            batch = sample_positive_batch(small_blobs, AugmentationSpec(), bs, k)
            seen.extend(tuple(r) for r in batch.x1)
        assert len(seen) == n
        assert {tuple(r) for r in small_blobs.samples} == set(seen)

    def test_final_short_batch_is_allowed(self, small_blobs):
        n = len(small_blobs)
        bs = 32
        last = batches_per_epoch(n, bs) - 1
        batch = sample_positive_batch(small_blobs, AugmentationSpec(), bs, last)
        assert len(batch.x1) == n - bs * last

    def test_same_step_is_deterministic(self, blobs):
        aug = AugmentationSpec.symmetric(noise_sigma=0.3)
        a = sample_positive_batch(blobs, aug, 8, 3)
        b = sample_positive_batch(blobs, aug, 8, 3)
        assert a.x1.tobytes() == b.x1.tobytes()
        assert a.x2.tobytes() == b.x2.tobytes()

    def test_views_differ_under_noise(self, blobs):
        aug = AugmentationSpec.symmetric(noise_sigma=0.3)
        batch = sample_positive_batch(blobs, aug, 8, 0)
        assert not np.allclose(batch.x1, batch.x2)

    def test_aug_seed_changes_the_draw(self, blobs):
        a = sample_positive_batch(
            blobs, AugmentationSpec.symmetric(noise_sigma=0.3), 8, 0
        )
        spec = AugmentationSpec.symmetric(noise_sigma=0.3)
        reseeded = AugmentationSpec(view1=spec.view1, view2=spec.view2, seed=9)
        b = sample_positive_batch(blobs, reseeded, 8, 0)
        assert not np.array_equal(a.x1, b.x1) or not np.array_equal(a.x2, b.x2)

    def test_labels_travel_with_the_rows(self, blobs):
        batch = sample_positive_batch(blobs, AugmentationSpec(), 8, 0)
        row_to_label = {tuple(r): l for r, l in zip(blobs.samples, blobs.labels)}
        for row, label in zip(batch.x1, batch.labels):
            assert row_to_label[tuple(row)] == label


class TestAugmentedPairs:
    def test_requested_count_is_returned(self, blobs):
        raw, batch = draw_augmented_pairs(blobs, AugmentationSpec(), 37, seed=0)
        assert raw.shape == (37, 8)
        assert batch.x1.shape == (37, 8)
        assert batch.x2.shape == (37, 8)

    def test_identity_augmentation_copies_raw_rows(self, blobs):
        raw, batch = draw_augmented_pairs(blobs, AugmentationSpec(), 20, seed=1)
        np.testing.assert_array_equal(raw, batch.x1)
        np.testing.assert_array_equal(raw, batch.x2)

    def test_same_seed_reproduces(self, blobs):
        aug = AugmentationSpec.symmetric(noise_sigma=0.2)
        a = draw_augmented_pairs(blobs, aug, 10, seed=5)
        b = draw_augmented_pairs(blobs, aug, 10, seed=5)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1].x2.tobytes() == b[1].x2.tobytes()


# The four kinds of view, each as both views of a spec, at row counts within
# one chunk of _apply_view and over more than one.
VIEW_KINDS = {
    "identity": ViewAugmentation(),
    "noise": ViewAugmentation(noise_sigma=0.3),
    "scale": ViewAugmentation(scale_lo=0.8, scale_hi=1.25),
    "noise+scale": ViewAugmentation(noise_sigma=0.3, scale_lo=0.8, scale_hi=1.25),
}
ROW_COUNTS = [64, 400, data._VIEW_CHUNK // 8 + 37]


@pytest.fixture(scope="module")
def many_blobs():
    # More rows than one chunk of _apply_view at d = 8.
    return make_blobs(SyntheticBlobsSpec(per_class=1100))


def textbook_view(raw, view, stream):
    # A view as the plain expression: scale, then noise, from one stream.
    rng = np.random.default_rng(stream)
    s = rng.uniform(view.scale_lo, view.scale_hi, size=(raw.shape[0], 1))
    return s * raw + view.noise_sigma * rng.normal(size=raw.shape)


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("kind", VIEW_KINDS)
class TestViewsEqualTheTextbookExpression:
    def test_training_batch(self, many_blobs, kind, rows):
        aug = AugmentationSpec(view1=VIEW_KINDS[kind], view2=VIEW_KINDS[kind], seed=3)
        n = len(many_blobs)
        shuffle = np.random.SeedSequence([aug.seed, data._TAG_SHUFFLE, 0])
        idx = np.random.default_rng(shuffle).permutation(n)[:rows]
        raw = many_blobs.samples[idx]
        batch = sample_positive_batch(many_blobs, aug, rows, 0)
        x1 = textbook_view(raw, aug.view1, np.random.SeedSequence([aug.seed, data._TAG_VIEW1, 0]))
        x2 = textbook_view(raw, aug.view2, np.random.SeedSequence([aug.seed, data._TAG_VIEW2, 0]))
        assert batch.x1.tobytes() == x1.tobytes()
        assert batch.x2.tobytes() == x2.tobytes()
        assert batch.labels.tobytes() == many_blobs.labels[idx].tobytes()

    def test_measurement_draw(self, many_blobs, kind, rows):
        aug = AugmentationSpec(view1=VIEW_KINDS[kind], view2=VIEW_KINDS[kind], seed=3)
        root = np.random.SeedSequence([5, data._TAG_MOMENTS, aug.seed])
        pick, v1, v2 = root.spawn(3)
        idx = np.random.default_rng(pick).integers(0, len(many_blobs), size=rows)
        raw = many_blobs.samples[idx]
        x1, x2 = textbook_view(raw, aug.view1, v1), textbook_view(raw, aug.view2, v2)
        got_raw, batch = draw_augmented_pairs(many_blobs, aug, rows, seed=5)
        assert got_raw.tobytes() == raw.tobytes()
        assert batch.x1.tobytes() == x1.tobytes()
        assert batch.x2.tobytes() == x2.tobytes()
        assert batch.labels.tobytes() == many_blobs.labels[idx].tobytes()
        est = estimate_aug_moments(many_blobs, aug, rows, seed=5)
        a = x1.T @ x1 / rows
        assert est.a.tobytes() == (0.5 * (a + a.T)).tobytes()
        assert est.b.tobytes() == (x2.T @ x1 / rows).tobytes()


class TestMoments:
    def test_identity_augmentation_matches_raw_second_moment(self):
        rng = np.random.default_rng(0)
        ds = Dataset(samples=rng.normal(size=(600, 4)), labels=np.zeros(600, dtype=int))
        est = estimate_aug_moments(ds, AugmentationSpec(), sample_count=400, seed=0)
        np.testing.assert_allclose(est.a, est.b, atol=1e-10)
        assert not est.rank_deficient

    def test_standard_normal_inputs_give_identity_moment(self):
        rng = np.random.default_rng(1)
        n = 20000
        ds = Dataset(samples=rng.normal(size=(n, 3)), labels=np.zeros(n, dtype=int))
        est = estimate_aug_moments(ds, AugmentationSpec(), sample_count=n, seed=0)
        assert np.max(np.abs(est.a - np.eye(3))) <= 5.0 / np.sqrt(n)

    def test_too_few_samples_rejected(self, blobs):
        with pytest.raises(ContractError):
            estimate_aug_moments(blobs, AugmentationSpec(), sample_count=10)

    def test_the_estimate_holds_no_full_size_temporary(self, blobs):
        # x1 and x2 alone take 2.44 MiB at 20000 rows of 8; gathering the raw
        # rows or building a view from full-size temporaries took 5.3 MiB.
        aug = AugmentationSpec(seed=0)
        estimate_aug_moments(blobs, aug, 20000)  # warm the caches first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            estimate_aug_moments(blobs, aug, 20000)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * 2**20

    def test_symmetry_of_reported_moments(self, blobs):
        aug = AugmentationSpec.symmetric(noise_sigma=0.2)
        est = estimate_aug_moments(blobs, aug, sample_count=200, seed=2)
        np.testing.assert_allclose(est.a, est.a.T, atol=1e-12)


class TestBinaryRecords:
    def make_file(self, tmp_path, records):
        path = tmp_path / "batch.bin"
        path.write_bytes(b"".join(records))
        return path

    def record(self, label, seed):
        rng = np.random.default_rng(seed)
        return bytes([label]) + bytes(rng.integers(0, 256, CIFAR_RECORD_BYTES - 1, dtype=np.uint8))

    def test_valid_records_load(self, tmp_path):
        path = self.make_file(tmp_path, [self.record(3, 0), self.record(9, 1)])
        ds = load_cifar10(path)
        assert ds.samples.shape == (2, CIFAR_RECORD_BYTES - 1)
        np.testing.assert_array_equal(ds.labels, [3, 9])
        assert 0.0 <= ds.samples.min() and ds.samples.max() <= 1.0

    def test_truncated_file_rejected(self, tmp_path):
        path = self.make_file(tmp_path, [self.record(1, 0)])
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(FormatError):
            load_cifar10(path)

    def test_out_of_range_label_rejected(self, tmp_path):
        path = self.make_file(tmp_path, [self.record(1, 0)])
        blob = bytearray(path.read_bytes())
        blob[0] = 255
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            load_cifar10(path)


class TestCsvExport:
    def test_export_row_count_and_reproducibility(self, tmp_path, blobs):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_dataset_csv(blobs, p1)
        export_dataset_csv(blobs, p2)
        lines = p1.read_text().splitlines()
        assert len(lines) == 401
        assert lines[0] == ",".join([f"x{i}" for i in range(8)] + ["label"])
        assert p1.read_bytes() == p2.read_bytes()

    def test_exported_floats_round_trip_exactly(self, tmp_path, blobs):
        path = tmp_path / "data.csv"
        export_dataset_csv(blobs, path)
        fields = path.read_text().splitlines()[1].split(",")
        row0 = np.array([float(v) for v in fields[:-1]])
        np.testing.assert_array_equal(row0, blobs.samples[0])
        assert int(fields[-1]) == blobs.labels[0]


class TestBatchCounts:
    @pytest.mark.parametrize(
        "n,bs,expected", [(400, 64, 7), (64, 64, 1), (65, 64, 2), (10, 3, 4)]
    )
    def test_epoch_length_is_ceil_division(self, n, bs, expected):
        assert batches_per_epoch(n, bs) == expected


class TestAugmentationValidation:
    def test_symmetric_builder_pairs_the_views(self):
        spec = AugmentationSpec.symmetric(noise_sigma=0.3)
        assert spec.view1 == spec.view2
        assert spec.view1.noise_sigma == 0.3

    def test_negative_noise_rejected(self):
        with pytest.raises(ConfigError):
            ViewAugmentation(noise_sigma=-0.1)

    def test_bad_scale_interval_rejected(self):
        with pytest.raises(ConfigError):
            ViewAugmentation(scale_lo=1.5, scale_hi=0.5)
