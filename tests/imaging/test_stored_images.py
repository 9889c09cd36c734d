"""Benchmark images kept in the experiment store (``images`` kind)."""

import numpy as np
import pytest

from repro.imaging import datasets
from repro.imaging.datasets import IMAGE_KIND, benchmark_images, image_key
from repro.store import ArtifactStore
from repro.workloads import build_bundle

SHAPE = (24, 40)


def assert_same_image(expected: np.ndarray, image: np.ndarray) -> None:
    assert image.dtype == expected.dtype
    assert image.shape == expected.shape
    assert image.tobytes() == expected.tobytes()
    assert image.flags.writeable == expected.flags.writeable
    assert image.flags.c_contiguous


class TestStoredImages:
    def test_stored_images_equal_synthesised(self, tmp_path):
        store = ArtifactStore(tmp_path)
        reference = benchmark_images(3, shape=SHAPE)
        cold = benchmark_images(3, shape=SHAPE, store=store)
        assert len(store.entries(IMAGE_KIND)) == 3
        warm = benchmark_images(3, shape=SHAPE, store=store)
        for expected, first, again in zip(reference, cold, warm):
            assert_same_image(expected, first)
            assert_same_image(expected, again)

    def test_warm_read_synthesises_nothing(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path)
        reference = benchmark_images(2, shape=SHAPE, store=store)

        def no_synthesis(index, shape):
            raise AssertionError("image synthesised on a warm read")

        monkeypatch.setattr(datasets, "synthetic_image", no_synthesis)
        for expected, image in zip(
            reference, benchmark_images(2, shape=SHAPE, store=store)
        ):
            assert_same_image(expected, image)

    def test_growing_the_set_writes_only_new_images(self, tmp_path):
        store = ArtifactStore(tmp_path)
        benchmark_images(2, shape=SHAPE, store=store)
        before = {ref.key: ref.path.stat().st_mtime_ns
                  for ref in store.entries(IMAGE_KIND)}
        images = benchmark_images(3, shape=SHAPE, store=store)
        after = {ref.key: ref.path.stat().st_mtime_ns
                 for ref in store.entries(IMAGE_KIND)}
        assert set(after) - set(before) == {image_key(2, SHAPE)}
        assert all(after[key] == mtime for key, mtime in before.items())
        assert_same_image(datasets.synthetic_image(2, SHAPE), images[2])

    def test_key_covers_index_shape_and_version(self, monkeypatch):
        key = image_key(0, SHAPE)
        assert image_key(0, list(SHAPE)) == key
        assert image_key(1, SHAPE) != key
        assert image_key(0, (40, 24)) != key
        monkeypatch.setattr(
            datasets, "IMAGES_VERSION", datasets.IMAGES_VERSION + 1
        )
        assert image_key(0, SHAPE) != key

    def test_no_store_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        benchmark_images(2, shape=SHAPE)
        assert list(tmp_path.iterdir()) == []

    def test_gc_keeps_images(self, tmp_path):
        store = ArtifactStore(tmp_path)
        benchmark_images(2, shape=SHAPE, store=store)
        stats = store.gc(set())
        assert stats["removed"] == 0
        assert len(store.entries(IMAGE_KIND)) == 2

    @pytest.mark.parametrize("with_store", [False, True])
    def test_workload_bundle_images(self, tmp_path, with_store):
        store = ArtifactStore(tmp_path) if with_store else None
        bundle = build_bundle(
            "sobel", n_images=2, image_shape=SHAPE, store=store
        )
        for expected, image in zip(
            benchmark_images(2, shape=SHAPE), bundle.images
        ):
            assert_same_image(expected, image)
        stored = ArtifactStore(tmp_path).entries(IMAGE_KIND)
        assert len(stored) == (2 if with_store else 0)
