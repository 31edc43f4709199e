import numpy as np
import pytest

from ncdkit.errors import ConfigError, DegenerateInputError, DimensionError, NumericError
from ncdkit.numerics import (Param, RngState, Tensor, affine_forward,
                             check_gradients, concat, l2_normalize, sgd_momentum_step,
                             softmax)


# ---- rng -------------------------------------------------------------------------

def test_rng_identical_state_identical_draws():
    a = RngState(123, counter=7)
    b = RngState(123, counter=7)
    assert np.array_equal(a._raw(100), b._raw(100))
    assert a.uniform() == b.uniform()
    assert a.normal() == b.normal()


def test_rng_vectorized_matches_sequential():
    a = RngState(5)
    b = RngState(5)
    block = a.uniform(6)
    singles = np.array([b.uniform() for _ in range(6)])
    assert np.array_equal(block, singles)


def test_rng_derive_gives_independent_streams():
    root = RngState(9)
    c1 = root.derive(1)
    c2 = root.derive(2)
    assert c1.seed != c2.seed
    # deriving is a pure function of (seed, tag)
    assert root.derive(1).seed == c1.seed


def test_rng_permutation_is_valid_and_deterministic():
    p1 = RngState(3).permutation(50)
    p2 = RngState(3).permutation(50)
    assert np.array_equal(p1, p2)
    assert sorted(p1.tolist()) == list(range(50))


def test_rng_below_range():
    rng = RngState(11)
    draws = [rng.below(7) for _ in range(200)]
    assert min(draws) >= 0 and max(draws) <= 6
    assert len(set(draws)) == 7


def reference_below(rng, n):
    """below() as a loop of single draws: reject v >= 2^64 - (2^64 mod n)."""
    limit = (1 << 64) - ((1 << 64) % n)
    while True:
        v = int(rng._raw(1)[0])
        if v < limit:
            return v % n


def test_rng_permutation_and_sample_indices_match_loop_of_below():
    for n in (0, 1, 2, 9, 64):
        rng = RngState(31, counter=n)
        ref = rng.clone()
        expected = list(range(n))
        for i in range(n - 1):
            j = i + reference_below(ref, n - i)
            expected[i], expected[j] = expected[j], expected[i]
        assert rng.permutation(n).tolist() == expected
        assert rng.counter == ref.counter
    for pool, count in ((10, 0), (10, 4), (10, 10), (10, 25), (1, 3)):
        rng = RngState(32)
        ref = rng.clone()
        if count <= pool:
            expected = list(range(pool))
            for i in range(count):
                j = i + reference_below(ref, pool - i)
                expected[i], expected[j] = expected[j], expected[i]
            expected = expected[:count]
        else:
            expected = [reference_below(ref, pool) for _ in range(count)]
        assert rng.sample_indices(pool, count) == expected
        assert rng.counter == ref.counter


def test_rng_below_many_rejection_path_matches_sequential_below():
    # a draw is rejected for n = 2^63 + 1 + k when it is >= n, about half of them
    bounds = [(1 << 63) + 1 + k for k in range(40)] + [7, 1, (1 << 64) - 1, 3] * 5
    rng = RngState(33)
    seq = rng.clone()
    ref = rng.clone()
    values = rng.below_many(bounds)
    assert values == [seq.below(n) for n in bounds]
    assert values == [reference_below(ref, n) for n in bounds]
    assert rng.counter == seq.counter == ref.counter
    assert rng.counter > len(bounds) + 10  # the rejection path really ran


def test_rng_below_rejects_empty_range():
    with pytest.raises(ConfigError):
        RngState(0).below(0)
    with pytest.raises(ConfigError):
        RngState(0).sample_indices(0, 3)


# ---- tensor basics ----------------------------------------------------------------

def test_tensor_rejects_non_finite():
    with pytest.raises(NumericError):
        Tensor([1.0, np.inf])
    with pytest.raises(NumericError):
        Tensor([np.nan])


def test_backward_requires_scalar():
    t = Tensor([[1.0, 2.0]])
    with pytest.raises(DimensionError):
        t.backward()


# ---- affine examples ----------------------------------------------------------------

def test_affine_identity_weights():
    x = Tensor([[1.0, 2.0]])
    w = Param(np.eye(2))
    b = Param(np.zeros(2))
    assert np.allclose(affine_forward(x, w, b).data, [[1.0, 2.0]])


def test_affine_zero_weights_pass_bias():
    x = Tensor([[1.0, 2.0]])
    w = Param(np.zeros((2, 2)))
    b = Param(np.array([3.0, 4.0]))
    assert np.allclose(affine_forward(x, w, b).data, [[3.0, 4.0]])


def test_affine_hand_multiply():
    # [1,1] @ [[2,1],[1,2]] + [1,1] = [4,4]
    x = Tensor([[1.0, 1.0]])
    w = Param(np.array([[2.0, 1.0], [1.0, 2.0]]))
    b = Param(np.array([1.0, 1.0]))
    assert np.allclose(affine_forward(x, w, b).data, [[4.0, 4.0]])


def test_affine_shape_mismatch():
    with pytest.raises(DimensionError):
        affine_forward(Tensor([[1.0, 2.0, 3.0]]), Param(np.eye(2)), Param(np.zeros(2)))


def test_affine_accumulates_param_grads():
    x = Tensor([[1.0, 2.0]])
    w = Param(np.eye(2))
    b = Param(np.zeros(2))
    affine_forward(x, w, b).sum().backward()
    assert np.allclose(w.grad, [[1.0, 1.0], [2.0, 2.0]])
    assert np.allclose(b.grad, [1.0, 1.0])
    assert np.allclose(x.grad, [[1.0, 1.0]])  # ones @ W.T with identity W


# ---- l2 normalize ---------------------------------------------------------------

def test_l2_normalize_345():
    assert np.allclose(l2_normalize(Tensor([3.0, 4.0])).data, [0.6, 0.8])


def test_l2_normalize_already_unit():
    assert np.allclose(l2_normalize(Tensor([1.0, 0.0, 0.0])).data, [1.0, 0.0, 0.0])


def test_l2_normalize_sqrt8():
    out = l2_normalize(Tensor([2.0, 2.0])).data
    assert np.allclose(out, [0.7071, 0.7071], atol=1e-4)


def test_l2_normalize_rows_unit_within_1e9():
    rng = RngState(0)
    out = l2_normalize(Tensor(rng.normal((20, 7)))).data
    assert np.all(np.abs(np.sqrt((out * out).sum(axis=1)) - 1.0) <= 1e-9)


def test_l2_normalize_degenerate_row():
    with pytest.raises(DegenerateInputError):
        l2_normalize(Tensor([[0.0, 0.0], [1.0, 0.0]]))


# ---- softmax -------------------------------------------------------------------

def test_softmax_symmetry():
    assert np.allclose(softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])


def test_softmax_shift_invariance():
    rng = RngState(4)
    x = rng.normal((5, 6))
    a = softmax(Tensor(x)).data
    b = softmax(Tensor(x + 13.7)).data
    assert np.max(np.abs(a - b)) <= 1e-9


def test_softmax_ln2():
    out = softmax(Tensor([np.log(2.0), 0.0])).data
    assert np.allclose(out, [2.0 / 3.0, 1.0 / 3.0], atol=1e-9)


def test_softmax_rows_sum_to_one():
    rng = RngState(8)
    out = softmax(Tensor(rng.normal((30, 9)) * 20)).data
    assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-9)
    assert np.all(out >= 0)


# ---- sgd ------------------------------------------------------------------------

def test_sgd_single_step():
    p = Param(np.array([1.0]))
    p.value.grad = np.array([0.5])
    sgd_momentum_step([p], lr=0.1, momentum=0.0)
    assert np.allclose(p.value.data, [0.95])
    assert p.value.grad is None


def test_sgd_zero_grad_no_change():
    p = Param(np.array([1.0, -2.0]))
    sgd_momentum_step([p], lr=0.1, momentum=0.5)
    assert np.allclose(p.value.data, [1.0, -2.0])


def test_sgd_two_momentum_steps():
    # slot 1 then 1.5; value 0 -> -1 -> -2.5
    p = Param(np.array([0.0]))
    for _ in range(2):
        p.value.grad = np.array([1.0])
        sgd_momentum_step([p], lr=1.0, momentum=0.5)
    assert np.allclose(p.value.data, [-2.5])


def test_sgd_rejects_bad_lr():
    with pytest.raises(ConfigError):
        sgd_momentum_step([Param(np.zeros(1))], lr=0.0, momentum=0.0)


# ---- gradient checker ------------------------------------------------------------

def test_check_gradients_quadratic():
    w = Param(np.array([1.0, 2.0]))
    err = check_gradients(lambda: (w.value * w.value).sum(), [w])
    assert err <= 1e-6
    # and the analytic gradient itself is 2w
    (w.value * w.value).sum().backward()
    assert np.allclose(w.value.grad, [2.0, 4.0])


def test_check_gradients_constant_loss():
    w = Param(np.array([3.0]))
    err = check_gradients(lambda: Tensor(7.0), [w])
    assert err <= 1e-6


def test_check_gradients_validates_h():
    w = Param(np.zeros(2))
    with pytest.raises(ConfigError):
        check_gradients(lambda: (w.value * w.value).sum(), [w], h=1e-2)


def test_check_gradients_restores_values_and_grads():
    w = Param(np.array([1.0, 2.0, 3.0]))
    before = w.value.data.copy()
    check_gradients(lambda: (w.value * w.value).sum(), [w])
    assert np.array_equal(w.value.data, before)
    assert w.value.grad is None


# ---- property test: every op vs central differences over many seeds ---------------

def _op_cases(rng):
    """Scalar losses exercising each primitive, as (params, loss_fn) pairs."""
    a = Param(rng.normal((3, 4)))
    b = Param(rng.normal((3, 4)) + 3.5)         # strictly positive shifted below
    m = Param(rng.normal((4, 5)))
    w = np.abs(rng.normal((3, 4))) + 0.5        # fixed positive mixing weights
    wm = rng.normal((3, 5))
    idx = np.array([0, 2, 1, 0])
    wg = rng.normal((len(idx), 4))

    return [
        ([a, b], lambda: ((a.value + b.value) * w).sum()),
        ([a, b], lambda: ((a.value - b.value) * w).sum()),
        ([a, b], lambda: ((a.value * b.value) * w).sum()),
        ([a, b], lambda: ((a.value / (b.value * b.value + 1.0)) * w).sum()),
        ([a], lambda: ((a.value ** 3.0) * w).sum()),
        ([a, m], lambda: (a.value.matmul(m.value) * wm).sum()),
        ([a], lambda: (a.value.T * w.T).sum()),
        ([a], lambda: ((a.value * 0.3).exp() * w).sum()),
        ([b], lambda: ((b.value * b.value + 0.1).log() * w).sum()),
        ([a], lambda: (a.value.relu() * w).sum()),
        ([a], lambda: (a.value.clamp(-0.5, 0.5) * w).sum()),
        ([a], lambda: (a.value.sum(axis=1) * w[:, 0]).sum()),
        ([a], lambda: (a.value.mean(axis=0) * w[0]).sum()),
        ([a], lambda: (a.value.reshape((4, 3)) * w.reshape((4, 3))).sum()),
        ([a], lambda: (a.value.rows(idx) * wg).sum()),
        ([a, b], lambda: (concat([a.value, b.value], axis=1) * np.hstack([w, w])).sum()),
        ([a], lambda: (l2_normalize(a.value) * w).sum()),
        ([a], lambda: (softmax(a.value) * w).sum()),
    ]


def test_all_ops_match_finite_differences_over_100_seeds():
    worst = 0.0
    for seed in range(100):
        rng = RngState(seed)
        for params, loss_fn in _op_cases(rng):
            err = check_gradients(loss_fn, params, max_coords=3, rng=rng)
            worst = max(worst, err)
    assert worst <= 1e-4, f"worst relative error {worst}"
