import gzip
import os
import struct
import urllib.request

import numpy as np
import pytest

from cknet import data
from cknet.data import (
    MNIST_FILES,
    Dataset,
    IdxFormatError,
    fetch_mnist,
    generate_toy_1d,
    load_idx_images,
    load_idx_labels,
    load_mnist_dir,
    load_mnist_idx,
    split,
    synthetic_digits,
)
from helpers import best_threshold_accuracy, save_idx_images, save_idx_labels

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801


class TestToyDataset:
    def test_minimal_construction(self):
        ds = generate_toy_1d(1, seed=0)
        x = ds.inputs[:, 0]
        assert len(ds) == 4
        assert (ds.labels == 1).sum() == 2
        blue = x[ds.labels == 0]
        assert (blue < -1).sum() == 1 and (blue > 1).sum() == 1

    @pytest.mark.parametrize("seed", [0, 1, 17, 123])
    def test_segments_are_disjoint(self, seed):
        ds = generate_toy_1d(25, seed=seed)
        x = ds.inputs[:, 0]
        red = x[ds.labels == 1]
        blue_left = x[(ds.labels == 0) & (x < 0)]
        blue_right = x[(ds.labels == 0) & (x > 0)]
        assert blue_left.max() < red.min()
        assert red.max() < blue_right.min()

    def test_classes_exactly_balanced(self):
        ds = generate_toy_1d(40, seed=2)
        assert (ds.labels == 0).sum() == (ds.labels == 1).sum() == 80

    def test_not_threshold_separable_beyond_75_percent(self):
        for seed in range(5):
            ds = generate_toy_1d(40, seed=seed)
            assert best_threshold_accuracy(ds.inputs[:, 0], ds.labels) == 0.75

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            generate_toy_1d(0)


class TestBestThreshold:
    def test_separable_data_scores_one(self):
        values = np.array([-2.0, -1.0, 1.0, 2.0])
        labels = np.array([0, 0, 1, 1])
        assert best_threshold_accuracy(values, labels) == 1.0

    def test_orientation_is_free(self):
        values = np.array([-2.0, -1.0, 1.0, 2.0])
        labels = np.array([1, 1, 0, 0])
        assert best_threshold_accuracy(values, labels) == 1.0

    def test_exhaustive_against_brute_force(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(30)
        labels = rng.integers(0, 2, 30)
        # brute force over all cuts and orientations
        candidates = np.concatenate([[-np.inf], np.sort(values), [np.inf]])
        best = 0.0
        for t in candidates:
            above = ((values > t).astype(int) == labels).mean()
            below = ((values <= t).astype(int) == labels).mean()
            best = max(best, above, below)
        assert best_threshold_accuracy(values, labels) == pytest.approx(best)


class TestIdxFormat:
    def test_single_image_fixture_has_exact_pixels(self, tmp_path):
        # hand-crafted IDX3 file: one 2x3 image with known bytes
        payload = bytes([0, 1, 2, 253, 254, 255])
        raw = struct.pack(">IIII", IMAGE_MAGIC, 1, 2, 3) + payload
        img_path = tmp_path / "img-idx3-ubyte"
        img_path.write_bytes(raw)
        lbl_path = tmp_path / "lbl-idx1-ubyte"
        lbl_path.write_bytes(struct.pack(">II", LABEL_MAGIC, 1) + bytes([7]))
        ds = load_mnist_idx(img_path, lbl_path)
        assert ds.inputs.shape == (1, 6)
        assert np.array_equal(ds.inputs[0], np.array([0, 1, 2, 253, 254, 255]) / 255.0)
        assert ds.labels[0] == 7

    def test_gzip_accepted_by_suffix(self, tmp_path):
        raw = struct.pack(">IIII", IMAGE_MAGIC, 2, 2, 2) + bytes(range(8))
        path = tmp_path / "imgs-idx3-ubyte.gz"
        path.write_bytes(gzip.compress(raw))
        images = load_idx_images(path)
        assert images.shape == (2, 2, 2)
        assert images.ravel().tolist() == list(range(8))

    def test_count_mismatch_between_files(self, tmp_path):
        img_path = tmp_path / "imgs-idx3-ubyte"
        img_path.write_bytes(struct.pack(">IIII", IMAGE_MAGIC, 2, 1, 1) + bytes([1, 2]))
        lbl_path = tmp_path / "lbls-idx1-ubyte"
        lbl_path.write_bytes(struct.pack(">II", LABEL_MAGIC, 3) + bytes([0, 1, 2]))
        with pytest.raises(IdxFormatError, match="count mismatch"):
            load_mnist_idx(img_path, lbl_path)

    @pytest.mark.parametrize(
        "load,raw,message",
        [
            (load_idx_images, b"\x00\x00", "truncated while reading magic number (wanted 4 bytes, got 2)"),
            (load_idx_images, struct.pack(">II", LABEL_MAGIC, 1),
             "magic number 0x00000801, expected image magic 0x00000803"),
            (load_idx_images, struct.pack(">III", IMAGE_MAGIC, 1, 2),
             "truncated while reading dimensions (wanted 12 bytes, got 8)"),
            (load_idx_images, struct.pack(">IIII", IMAGE_MAGIC, 2, 2, 2) + bytes(5),
             "truncated while reading 2 images (wanted 8 bytes, got 5)"),
            (load_idx_images, struct.pack(">IIII", IMAGE_MAGIC, 1, 1, 2) + bytes(3),
             "trailing bytes after image payload"),
            (load_idx_images, struct.pack(">IIII", IMAGE_MAGIC, *[2**32 - 1] * 3) + bytes(3),
             f"truncated while reading {2**32 - 1} images (wanted {(2**32 - 1)**3} bytes, got 3)"),
            (load_idx_labels, b"", "truncated while reading magic number (wanted 4 bytes, got 0)"),
            (load_idx_labels, struct.pack(">II", IMAGE_MAGIC, 1),
             "magic number 0x00000803, expected label magic 0x00000801"),
            (load_idx_labels, struct.pack(">IH", LABEL_MAGIC, 1), "truncated while reading count (wanted 4 bytes, got 2)"),
            (load_idx_labels, struct.pack(">II", LABEL_MAGIC, 3) + bytes(1),
             "truncated while reading 3 labels (wanted 3 bytes, got 1)"),
            (load_idx_labels, struct.pack(">II", LABEL_MAGIC, 1) + bytes(2), "trailing bytes after label payload"),
        ],
        ids=[f"images-{fault}" for fault in ("short-magic", "wrong-magic", "short-header", "short-payload",
                                              "trailing", "huge-header")]
        + [f"labels-{fault}" for fault in ("short-magic", "wrong-magic", "short-header", "short-payload", "trailing")],
    )
    def test_error_messages_name_the_file_and_the_fault(self, tmp_path, load, raw, message):
        path = tmp_path / "file-idx"
        path.write_bytes(raw)
        with pytest.raises(IdxFormatError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_roundtrip_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        images = rng.integers(0, 256, size=(7, 4, 5), dtype=np.uint8)
        labels = rng.integers(0, 10, size=7, dtype=np.uint8)
        img_path, lbl_path = tmp_path / "a-idx3-ubyte.gz", tmp_path / "b-idx1-ubyte.gz"
        save_idx_images(img_path, images)
        save_idx_labels(lbl_path, labels)
        assert np.array_equal(load_idx_images(img_path), images)
        assert np.array_equal(load_idx_labels(lbl_path), labels)
        ds = load_mnist_idx(img_path, lbl_path)
        assert np.array_equal((ds.inputs * 255.0).round().astype(np.uint8), images.reshape(7, -1))


@pytest.mark.skipif(
    not os.environ.get("CK_DATA_DIR"), reason="CK_DATA_DIR with real MNIST not set"
)
def test_official_train_set_has_expected_dimensions():
    ds = load_mnist_dir(os.environ["CK_DATA_DIR"], train=True)
    assert len(ds) == 60000
    assert ds.input_dim == 28 * 28
    assert set(np.unique(ds.labels)) == set(range(10))


class TestFetchMnist:
    """``fetch_mnist`` offline: ``urlretrieve`` writes a file of a given size."""

    @staticmethod
    def fake_urlretrieve(monkeypatch, size=lambda name: MNIST_FILES[name]):
        fetched = []

        def urlretrieve(url, target):
            fetched.append(url.rsplit("/", 1)[-1])
            with open(target, "wb") as fh:
                fh.truncate(size(fetched[-1]))

        monkeypatch.setattr(urllib.request, "urlretrieve", urlretrieve)
        return fetched

    def test_downloads_every_missing_file_once(self, tmp_path, monkeypatch):
        fetched = self.fake_urlretrieve(monkeypatch)
        paths = fetch_mnist(tmp_path / "mnist")
        assert fetched == list(MNIST_FILES)
        assert paths == {name: tmp_path / "mnist" / name for name in MNIST_FILES}
        assert all(paths[name].stat().st_size == size for name, size in MNIST_FILES.items())

    def test_cached_files_of_the_right_size_are_not_fetched_again(self, tmp_path, monkeypatch):
        names = list(MNIST_FILES)
        for name in names[:3]:
            with open(tmp_path / name, "wb") as fh:
                fh.truncate(MNIST_FILES[name])
        (tmp_path / names[3]).write_bytes(b"partial")
        fetched = self.fake_urlretrieve(monkeypatch)
        fetch_mnist(tmp_path)
        assert fetched == names[3:]
        fetch_mnist(tmp_path)
        assert fetched == names[3:]

    def test_download_of_the_wrong_size_names_the_file(self, tmp_path, monkeypatch):
        self.fake_urlretrieve(monkeypatch, size=lambda name: 7 if name.startswith("t10k-images") else MNIST_FILES[name])
        with pytest.raises(OSError, match="downloaded t10k-images-idx3-ubyte.gz has 7 bytes, expected 1648877"):
            fetch_mnist(tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(list(MNIST_FILES)[:2])

    def test_interrupted_download_leaves_no_file(self, tmp_path, monkeypatch):
        def interrupted(url, target):
            with open(target, "wb") as fh:
                fh.write(b"first bytes")
            raise OSError("connection reset")

        monkeypatch.setattr(urllib.request, "urlretrieve", interrupted)
        with pytest.raises(OSError, match="connection reset"):
            fetch_mnist(tmp_path)
        assert list(tmp_path.iterdir()) == []


class TestSplit:
    def test_half_split_of_ten(self):
        ds = synthetic_digits(10, seed=0)
        left, right = split(ds, 0.5, seed=1)
        assert len(left) == 5 and len(right) == 5

    def test_union_is_original_multiset(self):
        ds = synthetic_digits(20, seed=1)
        left, right = split(ds, 0.3, seed=2)
        combined = np.concatenate([left.inputs, right.inputs])
        original = ds.inputs
        order_a = np.lexsort(combined.T)
        order_b = np.lexsort(original.T)
        assert np.array_equal(combined[order_a], original[order_b])

    def test_same_seed_same_split(self):
        ds = synthetic_digits(16, seed=2)
        a1, b1 = split(ds, 0.25, seed=3)
        a2, b2 = split(ds, 0.25, seed=3)
        assert np.array_equal(a1.inputs, a2.inputs)
        assert np.array_equal(b1.labels, b2.labels)

    def test_degenerate_fraction_rejected(self):
        ds = synthetic_digits(10, seed=3)
        with pytest.raises(ValueError):
            split(ds, 0.01, seed=0)
        with pytest.raises(ValueError):
            split(ds, 1.5, seed=0)

    def test_non_numeric_fraction_is_a_type_error(self):
        with pytest.raises(TypeError, match=r"^fraction must be a real number, got '0.5'$"):
            split(synthetic_digits(10, seed=3), "0.5")


def per_sample_synthetic_digits(n, seed):
    """``synthetic_digits`` one sample at a time: the reference for its gather."""
    side, num_classes, noise, max_shift = 28, 10, 0.25, 2
    rng = np.random.default_rng(seed)
    ys, xs = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side), indexing="ij")
    prototypes = []
    for _ in range(num_classes):
        field = np.zeros((side, side))
        for _ in range(4):
            fx, fy = rng.uniform(0.5, 3.0, size=2)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            amplitude = rng.uniform(0.5, 1.0)
            field += amplitude * np.cos(2.0 * np.pi * (fx * xs + fy * ys) + phase)
        field = (field - field.mean()) / field.std()
        prototypes.append(0.5 + 0.22 * field)
    labels = np.tile(np.arange(num_classes), n // num_classes + 1)[:n]
    labels = labels[rng.permutation(n)]
    inputs = np.empty((n, side * side))
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    pixel_noise = rng.standard_normal((n, side, side)) * noise
    for i in range(n):
        image = np.roll(prototypes[labels[i]], tuple(shifts[i]), axis=(0, 1))
        inputs[i] = np.clip(image + pixel_noise[i], 0.0, 1.0).reshape(-1)
    return inputs, labels


class TestSyntheticDigits:
    @pytest.mark.parametrize("n", [10, 300, 2000, 10000])
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_bitwise_the_per_sample_reference(self, n, seed):
        ds = synthetic_digits(n, seed=seed)
        inputs, labels = per_sample_synthetic_digits(n, seed=seed)
        assert ds.inputs.tobytes() == inputs.tobytes()
        assert np.array_equal(ds.labels, labels)

    def test_shapes_and_range_match_mnist_conventions(self):
        ds = synthetic_digits(50, seed=4)
        assert ds.inputs.shape == (50, 784)
        assert ds.num_classes == 10
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    def test_deterministic_given_seed(self):
        a = synthetic_digits(30, seed=5)
        b = synthetic_digits(30, seed=5)
        assert np.array_equal(a.inputs, b.inputs)
        assert np.array_equal(a.labels, b.labels)

    def test_all_classes_present(self):
        ds = synthetic_digits(100, seed=6)
        assert set(ds.labels.tolist()) == set(range(10))


class TestDatasetInvariants:
    def test_labels_must_be_in_range(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.array([0, 5]), num_classes=3)

    @pytest.mark.parametrize("labels,num_classes", [
        (np.array([0.0, 1.0]), 2), (np.array([False, True]), 2), (np.array([0, 1]), 2.0),
    ])
    def test_labels_and_class_count_must_be_integers(self, labels, num_classes):
        with pytest.raises(TypeError, match="must be (an )?integer"):
            Dataset(np.zeros((2, 3)), labels, num_classes)
