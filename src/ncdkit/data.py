"""Synthetic datasets, augmentation, batch sampling, and dataset files.

Each dataset holds labelled records (classes 0..Cl-1) and unlabelled records
whose ground-truth class in [Cl, Cl+Cu) exists only for evaluation: sampled
training batches expose a label solely for labelled records and the sentinel
UNLABELLED otherwise.

Records are feature vectors, so augmentation is a random per-view transform
x' = mask * (s*x + noise) with a Bernoulli keep-mask, a uniform scale s, and
Gaussian noise.

Stream contract of a batch: sample_batch first draws the record indices
(labelled pool, then unlabelled pool, one bounded draw per index), then one
block of augmentation draws. One view of a d-vector reads
1 + 2*ceil(d/2) + d consecutive draws: the scale, the Box-Muller u1 and u2
halves, and the keep mask. Within a record the views come in the order
v-view0, a-view0, v-view1, a-view1, and records follow in batch order, so a
batch draws the same numbers as augment() called once per view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, SamplingError
from .losses import UNLABELLED
from .numerics import RngState, raw_normal, raw_uniform

LABELLED = "labelled"
UNLABELLED_SPLIT = "unlabelled"


@dataclass
class Record:
    rid: int
    split: str
    label: int  # class id; for unlabelled records this is evaluation-only ground truth
    x_v: np.ndarray
    x_a: np.ndarray | None


@dataclass
class Dataset:
    records: list[Record]
    classes_labelled: int
    classes_unlabelled: int
    d_v: int
    d_a: int | None  # None for single-modal datasets

    @property
    def multimodal(self) -> bool:
        return self.d_a is not None

    def labelled_indices(self) -> list[int]:
        return [i for i, r in enumerate(self.records) if r.split == LABELLED]

    def unlabelled_indices(self) -> list[int]:
        return [i for i, r in enumerate(self.records) if r.split == UNLABELLED_SPLIT]


@dataclass
class AugmentPolicy:
    noise_sigma: float = 0.0
    dropout_prob: float = 0.0
    scale_range: tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        lo, hi = self.scale_range
        if self.noise_sigma < 0:
            raise ConfigError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if not 0.0 <= self.dropout_prob < 1.0:
            raise ConfigError(f"dropout_prob must be in [0, 1), got {self.dropout_prob}")
        if not 0 < lo <= hi:
            raise ConfigError(f"scale_range must satisfy 0 < lo <= hi, got {self.scale_range}")


@dataclass
class BatchSpec:
    batch_size: int
    labelled_fraction: float | None  # None: use the dataset's own proportion
    rng: RngState

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        f = self.labelled_fraction
        if f is not None and not 0.0 <= f <= 1.0:
            raise ConfigError(f"labelled_fraction must be in [0, 1], got {f}")


@dataclass
class SampledBatch:
    """2N interleaved augmented views: items 2t and 2t+1 are views of record t."""

    x_v: np.ndarray           # [2N, d_v]
    x_a: np.ndarray | None    # [2N, d_a]
    labels: np.ndarray        # [2N], UNLABELLED where the record carries no supervision
    record_ids: np.ndarray    # [2N]
    splits: list[str]         # [2N]


def _class_mean(dim: int, shared: np.ndarray, own: np.ndarray, corr: float,
                radius: float) -> np.ndarray:
    direction = corr * shared[:dim] + (1.0 - corr) * own
    norm = np.sqrt((direction * direction).sum())
    if norm < 1e-12:
        direction = own
        norm = np.sqrt((direction * direction).sum())
    return radius * direction / norm


def generate_synthetic(classes_labelled: int, classes_unlabelled: int, per_class: int,
                       d_v: int, d_a: int | None, class_sep: float, intra_sigma: float,
                       modality_corr: float, rng: RngState) -> Dataset:
    """Gaussian class blobs with means on a radius-class_sep sphere per modality.

    Modality means of one class mix a shared latent direction (weight
    modality_corr) with a modality-private one, so the two views of a class
    are correlated but not identical. Classes 0..Cl-1 are labelled; the
    remaining Cu classes are unlabelled with ground truth kept for
    evaluation.
    """
    if classes_labelled < 0 or classes_unlabelled < 0 or classes_labelled + classes_unlabelled < 1:
        raise ConfigError("need at least one class")
    if per_class < 1:
        raise ConfigError(f"per_class must be >= 1, got {per_class}")
    if class_sep <= 0:
        raise ConfigError(f"class_sep must be positive, got {class_sep}")
    if not 0.0 <= modality_corr <= 1.0:
        raise ConfigError(f"modality_corr must be in [0, 1], got {modality_corr}")

    total = classes_labelled + classes_unlabelled
    d_shared = max(d_v, d_a or 0)
    means = []
    for _ in range(total):
        shared = rng.normal(d_shared)
        own_v = rng.normal(d_v)
        mean_v = _class_mean(d_v, shared, own_v, modality_corr, class_sep)
        if d_a is not None:
            own_a = rng.normal(d_a)
            mean_a = _class_mean(d_a, shared, own_a, modality_corr, class_sep)
        else:
            mean_a = None
        means.append((mean_v, mean_a))

    records = []
    rid = 0
    for c in range(total):
        mean_v, mean_a = means[c]
        split = LABELLED if c < classes_labelled else UNLABELLED_SPLIT
        for _ in range(per_class):
            x_v = mean_v + intra_sigma * rng.normal(d_v)
            x_a = mean_a + intra_sigma * rng.normal(d_a) if d_a is not None else None
            records.append(Record(rid=rid, split=split, label=c, x_v=x_v, x_a=x_a))
            rid += 1
    return Dataset(records=records, classes_labelled=classes_labelled,
                   classes_unlabelled=classes_unlabelled, d_v=d_v, d_a=d_a)


def _view_width(d: int) -> int:
    """Draws one view of a d-vector reads: scale, u1 and u2 halves, keep mask."""
    return 1 + 2 * ((d + 1) // 2) + d


def _augment_rows(x: np.ndarray, raw: np.ndarray, policy: AugmentPolicy) -> np.ndarray:
    """mask * (scale * x + noise) per row of x [B, d], row i reading raw[i]."""
    d = x.shape[1]
    half = (d + 1) // 2
    lo, hi = policy.scale_range
    scale = lo + (hi - lo) * raw_uniform(raw[:, :1])
    noise = policy.noise_sigma * raw_normal(raw[:, 1:1 + half], raw[:, 1 + half:1 + 2 * half], d)
    keep = (raw_uniform(raw[:, 1 + 2 * half:]) >= policy.dropout_prob).astype(np.float64)
    return keep * (scale * x + noise)


def augment(x: np.ndarray, policy: AugmentPolicy, rng: RngState) -> np.ndarray:
    """One stochastic view: mask * (scale * x + noise).

    Draw order is fixed so counters line up across runs regardless of
    policy values: one uniform for the scale, ceil(d/2) u1 then ceil(d/2) u2
    draws for the Box-Muller noise (cosine branch first, cut to d), then d
    uniforms for the keep mask, 1 + 2*ceil(d/2) + d draws in all.
    """
    x = np.asarray(x, dtype=np.float64)
    raw = rng._raw(_view_width(x.size)).reshape(1, -1)
    return _augment_rows(x.reshape(1, -1), raw, policy).reshape(x.shape)


def sample_batch(ds: Dataset, spec: BatchSpec, policy: AugmentPolicy) -> SampledBatch:
    """Draw N records (stratified by labelled fraction) and emit 2N views.

    The draws follow the stream contract in the module docstring: the
    indices, then one block of augmentation draws with one row per output
    view, [2N, width_v + width_a].
    """
    if not ds.records:
        raise SamplingError("cannot sample from an empty dataset")
    lab = ds.labelled_indices()
    unlab = ds.unlabelled_indices()
    frac = spec.labelled_fraction
    if frac is None:
        frac = len(lab) / len(ds.records)
    n_lab = int(round(spec.batch_size * frac))
    n_lab = min(max(n_lab, 0), spec.batch_size)
    n_unlab = spec.batch_size - n_lab
    if n_lab > 0 and not lab:
        raise SamplingError("labelled_fraction requires labelled records but none exist")
    if n_unlab > 0 and not unlab:
        raise SamplingError("batch needs unlabelled records but none exist")

    chosen = [lab[i] for i in spec.rng.sample_indices(len(lab), n_lab)] if n_lab else []
    chosen += [unlab[i] for i in spec.rng.sample_indices(len(unlab), n_unlab)] if n_unlab else []
    recs = [ds.records[idx] for idx in chosen]

    width_v = _view_width(ds.d_v)
    width = width_v + (_view_width(ds.d_a) if ds.multimodal else 0)
    raw = spec.rng._raw(2 * len(recs) * width).reshape(2 * len(recs), width)
    x_v = _augment_rows(np.repeat(np.stack([r.x_v for r in recs]), 2, axis=0),
                        raw[:, :width_v], policy)
    x_a = (_augment_rows(np.repeat(np.stack([r.x_a for r in recs]), 2, axis=0),
                         raw[:, width_v:], policy) if ds.multimodal else None)
    labels = [r.label if r.split == LABELLED else UNLABELLED for r in recs]
    return SampledBatch(x_v=x_v, x_a=x_a,
                        labels=np.repeat(np.array(labels, dtype=np.int64), 2),
                        record_ids=np.repeat(np.array([r.rid for r in recs], dtype=np.int64), 2),
                        splits=[r.split for r in recs for _ in range(2)])


# ---- dataset files ------------------------------------------------------------
#
# UTF-8 CSV with header id,split,label,v_0..v_{dv-1}[,a_0..a_{da-1}];
# floats carry 17 significant digits so a write/read round trip is exact.


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def write_dataset(ds: Dataset, path):
    cols = ["id", "split", "label"]
    cols += [f"v_{i}" for i in range(ds.d_v)]
    if ds.multimodal:
        cols += [f"a_{i}" for i in range(ds.d_a)]
    lines = [",".join(cols)]
    for rec in ds.records:
        row = [str(rec.rid), rec.split, str(rec.label)]
        row += [_fmt(v) for v in rec.x_v]
        if ds.multimodal:
            row += [_fmt(v) for v in rec.x_a]
        lines.append(",".join(row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_dataset(path) -> Dataset:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty dataset file")
    header = lines[0].split(",")
    if header[:3] != ["id", "split", "label"]:
        raise ParseError(f"{path}: line 1: header must start with id,split,label")
    d_v = sum(1 for c in header if c.startswith("v_"))
    d_a = sum(1 for c in header if c.startswith("a_")) or None
    expected = [f"v_{i}" for i in range(d_v)] + ([f"a_{i}" for i in range(d_a)] if d_a else [])
    if header[3:] != expected:
        raise ParseError(f"{path}: line 1: malformed feature columns")

    records = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != len(header):
            raise ParseError(
                f"{path}: line {lineno}: expected {len(header)} columns, got {len(parts)}")
        try:
            rid = int(parts[0])
            label = int(parts[2])
            values = [float(v) for v in parts[3:]]
        except ValueError as exc:
            raise ParseError(f"{path}: line {lineno}: {exc}") from exc
        split = parts[1]
        if split not in (LABELLED, UNLABELLED_SPLIT):
            raise ParseError(f"{path}: line {lineno}: unknown split {split!r}")
        x_v = np.array(values[:d_v])
        x_a = np.array(values[d_v:]) if d_a else None
        records.append(Record(rid=rid, split=split, label=label, x_v=x_v, x_a=x_a))

    lab_labels = [r.label for r in records if r.split == LABELLED]
    unlab_labels = [r.label for r in records if r.split == UNLABELLED_SPLIT]
    if any(v < 0 for v in lab_labels + unlab_labels):
        raise ParseError(f"{path}: negative class label")
    classes_labelled = max(lab_labels) + 1 if lab_labels else 0
    if unlab_labels and min(unlab_labels) < classes_labelled:
        raise ParseError(
            f"{path}: unlabelled ground-truth labels must start at {classes_labelled}")
    classes_unlabelled = (max(unlab_labels) + 1 - classes_labelled) if unlab_labels else 0
    return Dataset(records=records, classes_labelled=classes_labelled,
                   classes_unlabelled=classes_unlabelled, d_v=d_v, d_a=d_a)


def datasets_equal(a: Dataset, b: Dataset) -> bool:
    """Bit-exact comparison, used to verify file round trips."""
    if (a.classes_labelled, a.classes_unlabelled, a.d_v, a.d_a) != \
       (b.classes_labelled, b.classes_unlabelled, b.d_v, b.d_a):
        return False
    if len(a.records) != len(b.records):
        return False
    for ra, rb in zip(a.records, b.records):
        if (ra.rid, ra.split, ra.label) != (rb.rid, rb.split, rb.label):
            return False
        if not np.array_equal(ra.x_v, rb.x_v):
            return False
        if (ra.x_a is None) != (rb.x_a is None):
            return False
        if ra.x_a is not None and not np.array_equal(ra.x_a, rb.x_a):
            return False
    return True
