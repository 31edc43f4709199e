import numpy as np
import pytest

from ncdkit.data import (AugmentPolicy, BatchSpec, Dataset, LABELLED,
                         UNLABELLED_SPLIT, augment, datasets_equal, generate_synthetic,
                         read_dataset, sample_batch, write_dataset)
from ncdkit.errors import ConfigError, ParseError, SamplingError
from ncdkit.losses import UNLABELLED
from ncdkit.numerics import RngState


def small_ds(seed=0, multimodal=False, **kw):
    params = dict(classes_labelled=2, classes_unlabelled=2, per_class=5, d_v=4,
                  d_a=3 if multimodal else None, class_sep=5.0, intra_sigma=0.5,
                  modality_corr=0.5)
    params.update(kw)
    return generate_synthetic(rng=RngState(seed), **params)


# ---- generation --------------------------------------------------------------------

def test_generate_counts():
    ds = small_ds()
    assert len(ds.records) == 20
    assert len(ds.labelled_indices()) == 10
    assert len(ds.unlabelled_indices()) == 10


def test_generate_zero_sigma_samples_equal_class_means():
    ds = small_ds(intra_sigma=0.0)
    by_class = {}
    for r in ds.records:
        by_class.setdefault(r.label, []).append(r.x_v)
    for rows in by_class.values():
        assert all(np.array_equal(rows[0], x) for x in rows)
        assert abs(np.linalg.norm(rows[0]) - 5.0) <= 1e-9


def test_generate_nearest_class_mean_classifier_is_perfect():
    ds = small_ds(class_sep=10.0, intra_sigma=0.1, per_class=25)
    means = {}
    for r in ds.records:
        means.setdefault(r.label, []).append(r.x_v)
    means = {c: np.mean(v, axis=0) for c, v in means.items()}
    hits = sum(
        1 for r in ds.records
        if min(means, key=lambda c: np.linalg.norm(r.x_v - means[c])) == r.label)
    assert hits == len(ds.records)


def test_generate_deterministic():
    assert datasets_equal(small_ds(seed=3), small_ds(seed=3))


def test_generate_unlabelled_ground_truth_range():
    ds = small_ds()
    for r in ds.records:
        if r.split == UNLABELLED_SPLIT:
            assert 2 <= r.label < 4
        else:
            assert 0 <= r.label < 2


def test_generate_class_conditional_mean_converges():
    n = 10_000
    sigma = 0.7
    ds = generate_synthetic(1, 0, n, 3, None, 4.0, sigma, 0.0, RngState(8))
    xs = np.stack([r.x_v for r in ds.records])
    mean = xs.mean(axis=0)
    # the class mean is the common value at intra_sigma=0, reconstructed here
    ds0 = generate_synthetic(1, 0, 1, 3, None, 4.0, 0.0, 0.0, RngState(8))
    true_mean = ds0.records[0].x_v
    assert np.all(np.abs(mean - true_mean) <= 4.0 * sigma / np.sqrt(n))


def test_generate_validates():
    with pytest.raises(ConfigError):
        generate_synthetic(1, 1, 0, 4, None, 5.0, 1.0, 0.5, RngState(0))
    with pytest.raises(ConfigError):
        generate_synthetic(1, 1, 5, 4, None, -1.0, 1.0, 0.5, RngState(0))


# ---- augment -----------------------------------------------------------------------

def test_augment_identity_policy():
    x = RngState(1).normal(6)
    policy = AugmentPolicy(noise_sigma=0.0, dropout_prob=0.0, scale_range=(1.0, 1.0))
    out = augment(x, policy, RngState(2))
    assert np.array_equal(out, x)


def test_augment_fixed_scale():
    x = RngState(3).normal(6)
    policy = AugmentPolicy(noise_sigma=0.0, dropout_prob=0.0, scale_range=(2.0, 2.0))
    assert np.allclose(augment(x, policy, RngState(4)), 2.0 * x)


def test_augment_monte_carlo_mean():
    sigma = 0.8
    x = np.array([1.0, -2.0, 0.5])
    policy = AugmentPolicy(noise_sigma=sigma, dropout_prob=0.0, scale_range=(1.0, 1.0))
    rng = RngState(5)
    n = 10_000
    acc = np.zeros_like(x)
    for _ in range(n):
        acc += augment(x, policy, rng) - x
    mean_err = np.abs(acc / n)
    assert np.all(mean_err <= 3.0 * sigma / 100.0)  # 3 sigma / sqrt(10^4)


def test_augment_policy_validation():
    with pytest.raises(ConfigError):
        AugmentPolicy(noise_sigma=-1.0)
    with pytest.raises(ConfigError):
        AugmentPolicy(dropout_prob=1.0)
    with pytest.raises(ConfigError):
        AugmentPolicy(scale_range=(0.0, 1.0))


def test_augment_distinct_views_with_noise():
    x = RngState(6).normal(5)
    policy = AugmentPolicy(noise_sigma=0.5, dropout_prob=0.0, scale_range=(1.0, 1.0))
    rng = RngState(7)
    assert not np.array_equal(augment(x, policy, rng), augment(x, policy, rng))


# ---- batches -----------------------------------------------------------------------

def quiet_policy():
    return AugmentPolicy(noise_sigma=0.0, dropout_prob=0.0, scale_range=(1.0, 1.0))


def test_sample_batch_single_record_two_views():
    ds = small_ds()
    batch = sample_batch(ds, BatchSpec(1, None, RngState(9)), quiet_policy())
    assert batch.x_v.shape[0] == 2
    assert batch.record_ids[0] == batch.record_ids[1]
    assert batch.labels[0] == batch.labels[1]


def test_sample_batch_zero_fraction_has_no_labels():
    ds = small_ds()
    batch = sample_batch(ds, BatchSpec(4, 0.0, RngState(10)), quiet_policy())
    assert np.all(batch.labels == UNLABELLED)


def test_sample_batch_unlabelled_items_never_expose_ground_truth():
    ds = small_ds()
    batch = sample_batch(ds, BatchSpec(10, None, RngState(11)), quiet_policy())
    for label, split in zip(batch.labels, batch.splits):
        if split == UNLABELLED_SPLIT:
            assert label == UNLABELLED
        else:
            assert label >= 0


def test_sample_batch_deterministic_per_seed():
    ds = small_ds()
    policy = AugmentPolicy(noise_sigma=0.3, dropout_prob=0.1, scale_range=(0.8, 1.2))
    a = sample_batch(ds, BatchSpec(6, None, RngState(12)), policy)
    b = sample_batch(ds, BatchSpec(6, None, RngState(12)), policy)
    assert np.array_equal(a.record_ids, b.record_ids)
    assert np.array_equal(a.x_v, b.x_v)


def test_sample_batch_interleaves_views():
    ds = small_ds()
    batch = sample_batch(ds, BatchSpec(5, None, RngState(13)), quiet_policy())
    assert np.array_equal(batch.record_ids[0::2], batch.record_ids[1::2])
    assert np.array_equal(batch.labels[0::2], batch.labels[1::2])


def test_sample_batch_forced_fraction_on_empty_split_errors():
    records = [r for r in small_ds().records if r.split == LABELLED]
    ds = Dataset(records=records, classes_labelled=2, classes_unlabelled=0, d_v=4, d_a=None)
    with pytest.raises(SamplingError):
        sample_batch(ds, BatchSpec(4, 0.5, RngState(14)), quiet_policy())


def test_sample_batch_multimodal_shapes():
    ds = small_ds(multimodal=True)
    batch = sample_batch(ds, BatchSpec(3, None, RngState(15)), quiet_policy())
    assert batch.x_a.shape == (6, 3)


# ---- batched draws against the per-view reference ------------------------------------

def reference_augment(x, policy, rng):
    """augment() as one RngState call per draw kind: scale, noise, keep mask."""
    x = np.asarray(x, dtype=np.float64)
    lo, hi = policy.scale_range
    scale = lo + (hi - lo) * rng.uniform()
    noise = policy.noise_sigma * rng.normal(x.shape)
    keep = (rng.uniform(x.shape) >= policy.dropout_prob).astype(np.float64)
    return keep * (scale * x + noise)


def reference_sample_batch(ds, spec, policy):
    """sample_batch() as a loop over records and views, one augment per view."""
    lab = ds.labelled_indices()
    unlab = ds.unlabelled_indices()
    frac = spec.labelled_fraction
    if frac is None:
        frac = len(lab) / len(ds.records)
    n_lab = min(max(int(round(spec.batch_size * frac)), 0), spec.batch_size)
    n_unlab = spec.batch_size - n_lab
    chosen = [lab[i] for i in spec.rng.sample_indices(len(lab), n_lab)] if n_lab else []
    chosen += [unlab[i] for i in spec.rng.sample_indices(len(unlab), n_unlab)] if n_unlab else []
    x_v, x_a, labels, rids, splits = [], [], [], [], []
    for idx in chosen:
        rec = ds.records[idx]
        for _ in range(2):
            x_v.append(reference_augment(rec.x_v, policy, spec.rng))
            if ds.multimodal:
                x_a.append(reference_augment(rec.x_a, policy, spec.rng))
            labels.append(rec.label if rec.split == LABELLED else UNLABELLED)
            rids.append(rec.rid)
            splits.append(rec.split)
    return (np.stack(x_v), np.stack(x_a) if ds.multimodal else None,
            np.array(labels, dtype=np.int64), np.array(rids, dtype=np.int64), splits)


BUSY_POLICY = AugmentPolicy(noise_sigma=1.0, dropout_prob=0.2, scale_range=(0.7, 1.3))


@pytest.mark.parametrize("policy", [quiet_policy(), BUSY_POLICY], ids=["identity", "busy"])
@pytest.mark.parametrize("fraction", [None, 0.0, 1.0])
@pytest.mark.parametrize("dims", [(4, None), (5, None), (5, 3), (6, 7)],
                         ids=["even", "odd", "odd-multi", "mixed-multi"])
def test_sample_batch_matches_per_view_reference(dims, fraction, policy):
    d_v, d_a = dims
    ds = small_ds(seed=21, d_v=d_v, d_a=d_a)
    rng = RngState(22)
    ref_rng = rng.clone()
    # 15 and 25 exceed the one 10-record pool drawn at fractions 0.0 and 1.0;
    # 25 exceeds both pools at fraction None (12 labelled, 13 unlabelled)
    for batch_size in (3, 15, 1, 25, 10):
        batch = sample_batch(ds, BatchSpec(batch_size, fraction, rng), policy)
        x_v, x_a, labels, rids, splits = reference_sample_batch(
            ds, BatchSpec(batch_size, fraction, ref_rng), policy)
        assert np.array_equal(batch.x_v, x_v)
        assert (batch.x_a is None) == (x_a is None)
        if x_a is not None:
            assert np.array_equal(batch.x_a, x_a)
        assert np.array_equal(batch.labels, labels)
        assert np.array_equal(batch.record_ids, rids)
        assert batch.splits == splits
        assert rng.counter == ref_rng.counter


@pytest.mark.parametrize("d", [1, 2, 7, 16])
def test_augment_matches_reference(d):
    x = RngState(23).normal(d)
    rng = RngState(24)
    ref_rng = rng.clone()
    for _ in range(3):
        assert np.array_equal(augment(x, BUSY_POLICY, rng), reference_augment(x, BUSY_POLICY, ref_rng))
        assert rng.counter == ref_rng.counter


# ---- csv round trip ----------------------------------------------------------------

def test_round_trip_single_modal(tmp_path):
    ds = small_ds(seed=20)
    path = tmp_path / "data.csv"
    write_dataset(ds, path)
    assert datasets_equal(ds, read_dataset(path))


def test_round_trip_multimodal(tmp_path):
    ds = small_ds(seed=21, multimodal=True)
    path = tmp_path / "data.csv"
    write_dataset(ds, path)
    loaded = read_dataset(path)
    assert datasets_equal(ds, loaded)
    assert loaded.d_a == 3


def test_write_is_byte_deterministic(tmp_path):
    ds = small_ds(seed=22)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(ds, p1)
    write_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_read_rejects_wrong_arity(tmp_path):
    ds = small_ds(seed=23)
    path = tmp_path / "data.csv"
    write_dataset(ds, path)
    lines = path.read_text().splitlines()
    lines[3] = lines[3] + ",0.0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="line 4"):
        read_dataset(path)


def test_read_rejects_bad_header(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,split\n")
    with pytest.raises(ParseError, match="line 1"):
        read_dataset(path)


def test_read_rejects_unknown_split(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,split,label,v_0\n0,mystery,0,1.0\n")
    with pytest.raises(ParseError, match="line 2"):
        read_dataset(path)


def test_labelled_only_file_loads_with_empty_unlabelled(tmp_path):
    ds = small_ds(seed=24)
    only_lab = Dataset(records=[r for r in ds.records if r.split == LABELLED],
                       classes_labelled=2, classes_unlabelled=0, d_v=4, d_a=None)
    path = tmp_path / "data.csv"
    write_dataset(only_lab, path)
    loaded = read_dataset(path)
    assert loaded.unlabelled_indices() == []
    assert loaded.classes_labelled == 2 and loaded.classes_unlabelled == 0


def test_read_rejects_unlabelled_labels_below_labelled_range(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,split,label,v_0\n0,labelled,1,1.0\n1,unlabelled,0,2.0\n")
    with pytest.raises(ParseError):
        read_dataset(path)
