"""Output checks made apart from ncdkit.

Each check recomputes a result of the program by a different route (brute
force, plain loops, its own CSV parser) and returns a list of problems; an
empty list means the output passed. `self_test` feeds every check a
hand-built case it must reject, so a check that can never fail shows up as
a failed operation.
"""

from __future__ import annotations

import itertools
import math
import struct

import numpy as np


# ---- dataset CSV ------------------------------------------------------------


def parse_csv(path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a dataset CSV, split on commas, no type conversion."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh.read().split("\n") if line]
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def typed_rows(rows) -> list[tuple]:
    """(id, split, label, features) of parsed CSV rows, features as floats."""
    return [(int(r[0]), r[1], int(r[2]), [float(f) for f in r[3:]]) for r in rows]


def compare_records(expected, got, what: str) -> list[str]:
    """Record-by-record comparison of (id, split, label, features) tuples;
    features must match to the bit."""
    if len(expected) != len(got):
        return [f"{what}: {len(got)} records, expected {len(expected)}"]
    for n, (a, b) in enumerate(zip(expected, got)):
        if a[:3] != b[:3]:
            return [f"{what}: record {n}: id/split/label {b[:3]}, expected {a[:3]}"]
        if len(a[3]) != len(b[3]):
            return [f"{what}: record {n}: {len(b[3])} features, expected {len(a[3])}"]
        for col, (fa, fb) in enumerate(zip(a[3], b[3])):
            if _bits(float(fa)) != _bits(float(fb)):
                return [f"{what}: record {n}, feature {col}: {fb!r}, expected {fa!r}"]
    return []


def check_layout(header, rows, gen: dict) -> list[str]:
    """The file holds what generate_synthetic was asked for: per_class rows of
    every class, labelled classes first, and the right feature columns."""
    cl, cu, per = gen["classes_labelled"], gen["classes_unlabelled"], gen["per_class"]
    want = ["id", "split", "label"] + [f"v_{i}" for i in range(gen["d_v"])]
    if gen["d_a"] is not None:
        want += [f"a_{i}" for i in range(gen["d_a"])]
    if header != want:
        return ["unexpected header"]
    counts = {}
    for row in rows:
        label = int(row[2])
        if row[1] != ("labelled" if label < cl else "unlabelled"):
            return [f"record {row[0]}: split {row[1]} for class {label}"]
        counts[label] = counts.get(label, 0) + 1
    if counts != {c: per for c in range(cl + cu)}:
        return [f"class sizes {counts}, expected {per} each of {cl + cu}"]
    return []


# ---- accuracy -----------------------------------------------------------------


def brute_force_acc(y_true, y_pred, n: int) -> float:
    """Best accuracy over all n! maps from predicted cluster to class."""
    pairs = list(zip((int(t) for t in y_true), (int(p) for p in y_pred)))
    best = 0
    for perm in itertools.permutations(range(n)):
        best = max(best, sum(1 for t, p in pairs if perm[p] == t))
    return best / len(pairs)


def check_acc(acc: float, y_true, y_pred, n: int) -> list[str]:
    oracle = brute_force_acc(y_true, y_pred, n)
    return [] if acc == oracle else [f"reported ACC {acc!r}, brute force gives {oracle!r}"]


def check_floor(acc: float, floor: float) -> list[str]:
    return [] if acc >= floor else [f"ACC {acc} below the floor {floor}"]


def check_finite_losses(histories) -> list[str]:
    """Every logged per-epoch value of every training call is finite."""
    for h, history in enumerate(histories):
        for m in history:
            for name in ("acc", "ce", "bce", "cl", "mse", "omega"):
                if not math.isfinite(getattr(m, name)):
                    return [f"training call {h}, epoch {m.epoch}: {name} = {getattr(m, name)}"]
    return [] if histories else ["no training history was logged"]


# ---- k-means ------------------------------------------------------------------


def check_lloyd_fixed_point(X, labels, k: int) -> list[str]:
    """Every point is at least as near its own cluster's mean as any other."""
    X = np.asarray(X, dtype=np.float64)
    labels = np.asarray(labels)
    present = [c for c in range(k) if np.any(labels == c)]
    means = np.stack([X[labels == c].mean(axis=0) for c in present])
    d2 = ((X[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    own = d2[np.arange(len(X)), [present.index(int(c)) for c in labels]]
    worse = np.flatnonzero(own > d2.min(axis=1) * (1 + 1e-9) + 1e-12)
    if worse.size:
        return [f"{worse.size} points are nearer another cluster's mean, first {int(worse[0])}"]
    return []


# ---- WTA pair labels --------------------------------------------------------


def wta_codes(Z, perms, window: int) -> np.ndarray:
    """Per item and permutation, the first position of the largest of the
    first `window` permuted entries, found by a plain scan."""
    codes = np.empty((len(Z), len(perms)), dtype=np.int64)
    for i, z in enumerate(np.asarray(Z, dtype=np.float64).tolist()):
        for h, perm in enumerate(np.asarray(perms).tolist()):
            best = 0
            for j in range(1, window):
                if z[perm[j]] > z[perm[best]]:
                    best = j
            codes[i, h] = best
    return codes


def check_pair_labels(s, Z, perms, window: int, threshold: int) -> list[str]:
    """s is symmetric with unit diagonal, and s_ij = 1 exactly when the WTA
    codes of items i and j agree in at least `threshold` positions."""
    s = np.asarray(s)
    m = len(Z)
    if s.shape != (m, m):
        return [f"pair labels have shape {s.shape}, expected {(m, m)}"]
    problems = []
    if not np.array_equal(s, s.T):
        problems.append("pair labels are not symmetric")
    if not np.all(np.diagonal(s) == 1):
        problems.append("pair labels lack a unit diagonal")
    codes = wta_codes(Z, perms, window)
    for i in range(m):
        agree = (codes == codes[i]).sum(axis=1)
        want = (agree >= threshold).astype(np.int64)
        want[i] = 1
        bad = np.flatnonzero(s[i] != want)
        if bad.size:
            problems.append(f"row {i}: {bad.size} labels disagree with the oracle, first at {int(bad[0])}")
            break
    return problems


# ---- can each check fail? ---------------------------------------------------


def self_test() -> list[tuple[str, list[str]]]:
    """Run every check on one good and one bad hand-built case.

    Returns (name, problems) per check; a check passes its self-test when it
    accepts the good case and rejects the bad one.
    """
    results = []

    def expect(name, good, bad):
        problems = [f"rejected a good case: {good}"] if good else []
        if not bad:
            problems.append("accepted a bad case")
        results.append((name, problems))

    y_true = [0, 0, 1, 1, 2, 2, 3]
    y_pred = [1, 1, 0, 0, 3, 2, 2]          # best map (1->0, 0->1, 3->2, 2->3) gets 6 of 7
    expect("acc", check_acc(6 / 7, y_true, y_pred, 4), check_acc(5 / 7, y_true, y_pred, 4))
    expect("floor", check_floor(0.5, 0.4), check_floor(0.3, 0.4))

    header = ["id", "split", "label", "v_0", "v_1"]
    made = [(0, "labelled", 0, [0.1 + 0.2, -2.0]), (1, "unlabelled", 1, [1 / 3, 1e-300])]

    def written(fmt):
        return [[str(i), split, str(label)] + [fmt % x for x in xs]
                for i, split, label, xs in made]

    rows = written("%r")
    expect("csv", compare_records(made, typed_rows(rows), "good"),
           compare_records(made, typed_rows(written("%.10g")), "ten digits"))
    one_ulp = made[:1] + [(1, "unlabelled", 1, [1 / 3, math.nextafter(1e-300, 1.0)])]
    expect("csv ulp", compare_records(made, made, "good"),
           compare_records(made, one_ulp, "one ulp"))
    gen = {"classes_labelled": 1, "classes_unlabelled": 1, "per_class": 1, "d_v": 2, "d_a": None}
    expect("layout", check_layout(header, rows, gen),
           check_layout(header, rows, {**gen, "per_class": 2}))

    class Epoch:
        def __init__(self, cl):
            self.epoch, self.acc, self.ce, self.bce, self.mse, self.omega = 0, 1.0, 0.5, 0.5, 0.0, 1.0
            self.cl = cl

    expect("finite", check_finite_losses([[Epoch(2.0)]]),
           check_finite_losses([[Epoch(2.0), Epoch(float("nan"))]]))

    X = np.array([[0.0, 0.0], [0.1, 0.0], [5.0, 5.0], [5.1, 5.0], [2.4, 2.4]])
    expect("lloyd", check_lloyd_fixed_point(X, [0, 0, 1, 1, 0], 2),
           check_lloyd_fixed_point(X, [0, 1, 1, 1, 0], 2))

    rng = np.random.default_rng(0)
    Z = rng.normal(size=(6, 8))
    perms = np.stack([rng.permutation(8) for _ in range(8)])
    codes = wta_codes(Z, perms, 4)
    agree = (codes[:, None, :] == codes[None, :, :]).sum(axis=2)
    s = (agree >= 3).astype(np.int64)
    np.fill_diagonal(s, 1)
    flipped = s.copy()
    flipped[0, 1] = flipped[1, 0] = 1 - s[0, 1]
    expect("pairs", check_pair_labels(s, Z, perms, 4, 3),
           check_pair_labels(flipped, Z, perms, 4, 3))
    return results
