"""Dataset generation and ingestion.

The 1-D three-segment toy problem, IDX-format reading (MNIST's
on-disk format), a deterministic synthetic digit surrogate for offline
runs, and split/fetch helpers. Loading is single-threaded; datasets are
immutable after construction and safe to share.
"""
from __future__ import annotations

import gzip
import math
import numbers
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Dataset",
    "IdxFormatError",
    "generate_toy_1d",
    "load_idx_images",
    "load_idx_labels",
    "load_mnist_idx",
    "load_mnist_dir",
    "fetch_mnist",
    "synthetic_digits",
    "split",
    "MNIST_FILES",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# canonical file names with their gzip payload sizes, used to validate fetches
MNIST_FILES = {
    "train-images-idx3-ubyte.gz": 9912422,
    "train-labels-idx1-ubyte.gz": 28881,
    "t10k-images-idx3-ubyte.gz": 1648877,
    "t10k-labels-idx1-ubyte.gz": 4542,
}
MNIST_MIRROR = "https://ossci-datasets.s3.amazonaws.com/mnist/"


class IdxFormatError(ValueError):
    """An IDX file does not parse as expected."""


@dataclass(frozen=True)
class Dataset:
    """Immutable classification dataset: [N, input_dim] float inputs."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        if self.inputs.ndim != 2 or len(self.inputs) == 0:
            raise ValueError(f"inputs must be a non-empty [N, D] array, got {self.inputs.shape}")
        if self.labels.shape != (len(self.inputs),):
            raise ValueError(
                f"labels shape {self.labels.shape} does not match {len(self.inputs)} inputs"
            )
        if self.labels.dtype.kind not in "iu":
            raise TypeError(f"labels must be integers, got dtype {self.labels.dtype}")
        if not isinstance(self.num_classes, numbers.Integral):
            raise TypeError(f"num_classes must be an integer, got {self.num_classes!r}")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise ValueError(
                f"labels out of range [0, {self.num_classes}): "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]


# -- 1-D toy problem -----------------------------------------------------------


def generate_toy_1d(n_per_segment: int, seed: int = 0) -> Dataset:
    """Three abutting segments on the line: class 0, class 1, class 0.

    Class-0 points are uniform on [-3, -1) and [1, 3) (n each), class-1
    points uniform on [-1, 1) (2n), so the classes are exactly balanced and
    no single threshold can beat 75% accuracy.
    """
    if n_per_segment < 1:
        raise ValueError(f"n_per_segment must be >= 1, got {n_per_segment}")
    rng = np.random.default_rng(seed)
    n = n_per_segment
    left = rng.uniform(-3.0, -1.0, size=n)
    middle = rng.uniform(-1.0, 1.0, size=2 * n)
    right = rng.uniform(1.0, 3.0, size=n)
    inputs = np.concatenate([left, middle, right])[:, None]
    labels = np.concatenate([np.zeros(n), np.ones(2 * n), np.zeros(n)]).astype(np.int64)
    return Dataset(inputs, labels, num_classes=2)


# -- IDX format ------------------------------------------------------------------


def _open_for_read(path):
    path = str(path)
    if path.endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _exact(data: bytes, n: int, what: str, path) -> bytes:
    if len(data) < n:
        raise IdxFormatError(f"{path}: truncated while reading {what} "
                             f"(wanted {n} bytes, got {len(data)})")
    return data


def _load_idx(path, magic: int, kind: str, rank: int) -> np.ndarray:
    """The uint8 payload of an IDX file of ``rank`` dimensions whose magic
    number must be ``magic``; ``kind`` names its items in error messages.
    Corrupt gzip data raises ``IdxFormatError`` too."""
    try:
        with _open_for_read(path) as fh:
            found, = struct.unpack(">I", _exact(fh.read(4), 4, "magic number", path))
            if found != magic:
                raise IdxFormatError(f"{path}: magic number 0x{found:08x}, expected {kind} magic 0x{magic:08x}")
            what = "count" if rank == 1 else "dimensions"
            shape = struct.unpack(f">{rank}I", _exact(fh.read(4 * rank), 4 * rank, what, path))
            # the rest of the file, so a corrupt header cannot ask for a huge buffer
            payload = fh.read()
    except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
        raise IdxFormatError(f"{path}: corrupt gzip data ({exc})") from exc
    size = math.prod(shape)
    _exact(payload, size, f"{shape[0]} {kind}s", path)
    if len(payload) > size:
        raise IdxFormatError(f"{path}: trailing bytes after {kind} payload")
    return np.frombuffer(payload, dtype=np.uint8).reshape(shape)


def load_idx_images(path) -> np.ndarray:
    """Raw [N, rows, cols] uint8 pixels from an IDX3 image file."""
    return _load_idx(path, IMAGE_MAGIC, "image", 3)


def load_idx_labels(path) -> np.ndarray:
    """Raw [N] uint8 labels from an IDX1 label file."""
    return _load_idx(path, LABEL_MAGIC, "label", 1)


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Paired image/label IDX files as a flat float dataset scaled to [0, 1]."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if len(images) != len(labels):
        raise IdxFormatError(
            f"count mismatch: {len(images)} images in {images_path} but "
            f"{len(labels)} labels in {labels_path}"
        )
    inputs = images.reshape(len(images), -1).astype(np.float64) / 255.0
    return Dataset(inputs, labels.astype(np.int64), num_classes=10)


def _resolve_idx(data_dir: Path, stem: str) -> Path:
    for name in (stem + ".gz", stem):
        candidate = data_dir / name
        if candidate.exists():
            return candidate
    raise FileNotFoundError(
        f"missing {stem}[.gz] under {data_dir}; run `cknet fetch-mnist --data-dir "
        f"{data_dir}` or point --data-dir/CK_DATA_DIR at a directory holding the "
        "four standard IDX files"
    )


def load_mnist_dir(data_dir, train: bool = True) -> Dataset:
    """Load the train or test split from a directory of standard IDX files."""
    data_dir = Path(data_dir)
    prefix = "train" if train else "t10k"
    images = _resolve_idx(data_dir, f"{prefix}-images-idx3-ubyte")
    labels = _resolve_idx(data_dir, f"{prefix}-labels-idx1-ubyte")
    return load_mnist_idx(images, labels)


def fetch_mnist(data_dir) -> dict[str, Path]:
    """Download and cache the four standard gzip files, verifying sizes.

    Each file downloads to a ``.part`` name beside its final one and takes
    the final name only once its size is right, so a failed or wrong-size
    download leaves nothing under either name."""
    import urllib.request  # here, not at the top: it pulls in http.client and ssl
    data_dir = Path(data_dir)
    data_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, expected_size in MNIST_FILES.items():
        target = data_dir / name
        if not (target.exists() and target.stat().st_size == expected_size):
            partial = data_dir / (name + ".part")
            try:
                urllib.request.urlretrieve(MNIST_MIRROR + name, partial)
                actual = partial.stat().st_size
                if actual != expected_size:
                    raise OSError(f"downloaded {name} has {actual} bytes, expected {expected_size}")
                partial.replace(target)
            finally:
                partial.unlink(missing_ok=True)
        paths[name] = target
    return paths


# -- offline surrogate -----------------------------------------------------------


def synthetic_digits(n: int, seed: int = 0) -> Dataset:
    """Deterministic MNIST-shaped surrogate for machines without the real files.

    Each of the 10 classes is a smooth random field prototype on a 28x28
    grid; samples are copies shifted by up to 2 pixels either way, with
    per-pixel noise of standard deviation 0.25, clipped to [0, 1] and
    flattened. Same shapes and value range as the real data, so it slots
    into every experiment unchanged.
    """
    side, num_classes, noise, max_shift = 28, 10, 0.25, 2
    if n < num_classes:
        raise ValueError(f"need at least {num_classes} samples, got {n}")
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
    shifts = rng.integers(-max_shift, max_shift + 1, size=(n, 2))
    # every shifted copy of every prototype once, [class, row shift, column
    # shift], then one gather; the copies go before the noise is drawn, so
    # at most two n-by-pixels arrays are alive at once
    offsets = range(-max_shift, max_shift + 1)
    shifted = np.array([[[np.roll(p, (dy, dx), axis=(0, 1)) for dx in offsets] for dy in offsets] for p in prototypes])
    inputs = shifted[labels, shifts[:, 0] + max_shift, shifts[:, 1] + max_shift].reshape(n, side * side)
    del shifted
    pixel_noise = rng.standard_normal((n, side * side))
    pixel_noise *= noise
    inputs += pixel_noise
    np.clip(inputs, 0.0, 1.0, out=inputs)
    return Dataset(inputs, labels.astype(np.int64), num_classes=num_classes)


# -- splitting -------------------------------------------------------------------


def split(dataset: Dataset, fraction: float, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive, seeded split; first part gets ``fraction``."""
    if not isinstance(fraction, numbers.Real):
        raise TypeError(f"fraction must be a real number, got {fraction!r}")
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie strictly between 0 and 1, got {fraction}")
    n = len(dataset)
    n_first = int(round(fraction * n))
    if n_first == 0 or n_first == n:
        raise ValueError(f"split of {n} samples at fraction {fraction} leaves one side empty")
    perm = np.random.default_rng(seed).permutation(n)
    first, second = perm[:n_first], perm[n_first:]
    return (
        Dataset(dataset.inputs[first], dataset.labels[first], dataset.num_classes),
        Dataset(dataset.inputs[second], dataset.labels[second], dataset.num_classes),
    )
