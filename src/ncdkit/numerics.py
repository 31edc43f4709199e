"""Minimal differentiable numeric core.

Dense float64 tensors form a reverse-mode graph: every operation records its
parents and an exact backward closure, and ``Tensor.backward()`` walks the
graph in reverse topological order accumulating gradients into leaves.
Storage and elementwise arithmetic are delegated to numpy; the graph, the
backward rules, the optimizer, and the finite-difference checker live here.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DegenerateInputError, DimensionError, NumericError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
NORM_EPS = 1e-12


def _mix64(x: int) -> int:
    """SplitMix64 finalizer over python ints (exact 64-bit wraparound)."""
    z = x & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_U53 = 2.0 ** -53


def raw_uniform(raw: np.ndarray) -> np.ndarray:
    """Uniform float64 in [0, 1) from raw draws: the top 53 bits, scaled."""
    return (raw >> np.uint64(11)).astype(np.float64) * _U53


def raw_normal(raw1: np.ndarray, raw2: np.ndarray, n: int) -> np.ndarray:
    """n standard normals per row from Box-Muller pairs.

    raw1 and raw2 hold ceil(n/2) draws each along the last axis; the result
    is the cosine branch of every pair followed by the sine branch, cut to n.
    """
    # u1 in (0, 1] so the log is finite; u2 in [0, 1)
    u1 = ((raw1 >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
    u2 = raw_uniform(raw2)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=-1)[..., :n]


class RngState:
    """Counter-based deterministic random stream.

    Draw i of stream `seed` is mix64(seed + i * gamma), the SplitMix64
    sequence, so identical (seed, counter) pairs reproduce identical draws
    on any platform, and a block of draws can be generated vectorized.
    """

    def __init__(self, seed: int, counter: int = 0):
        self.seed = int(seed) & _MASK64
        self.counter = int(counter) & _MASK64

    def clone(self) -> "RngState":
        return RngState(self.seed, self.counter)

    def derive(self, tag: int) -> "RngState":
        """Independent child stream; used to split model/data/hash streams."""
        return RngState(_mix64(_mix64(self.seed ^ 0x94D049BB133111EB) + (int(tag) & _MASK64)))

    def _raw(self, n: int) -> np.ndarray:
        """Next n draws as uint64, advancing the counter."""
        idx = np.arange(1, n + 1, dtype=np.uint64) + np.uint64(self.counter)
        self.counter = (self.counter + n) & _MASK64
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + idx * np.uint64(_GAMMA)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
            return z ^ (z >> np.uint64(31))

    def uniform(self, shape=None) -> np.ndarray | float:
        """Uniform float64 in [0, 1); scalar when shape is None."""
        if shape is None:
            return float(raw_uniform(self._raw(1))[0])
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape)) if shape else 1
        return raw_uniform(self._raw(n)).reshape(shape)

    def normal(self, shape=None) -> np.ndarray | float:
        """Standard normal draws via Box-Muller; scalar when shape is None."""
        scalar = shape is None
        shape = (1,) if scalar else ((shape,) if isinstance(shape, int) else tuple(shape))
        n = int(np.prod(shape)) if shape else 1
        pairs = (n + 1) // 2
        z = raw_normal(self._raw(pairs), self._raw(pairs), n)
        return float(z[0]) if scalar else z.reshape(shape)

    def below(self, n: int) -> int:
        """Unbiased uniform integer in [0, n) by rejection sampling."""
        return self.below_many([n])[0]

    def below_many(self, bounds) -> list[int]:
        """One below(n) per bound, in order: the same values and the same
        final counter as sequential calls, drawn in one block per rejection.

        A draw v is accepted for bound n when v < 2^64 - (2^64 mod n). The
        block is accepted up to its first rejected draw; the stream then
        resumes just after that draw, which retries the same bound.
        """
        lowest = min(bounds, default=1)
        if lowest < 1:
            raise ConfigError(f"below() needs n >= 1, got {lowest}")
        bounds = np.array(bounds, dtype=np.uint64)
        # largest accepted draw per bound; in uint64, 2^64 mod n is (0 - n) mod n
        top = np.uint64(_MASK64) - (np.uint64(0) - bounds) % bounds
        values: list[int] = []
        while len(values) < bounds.size:
            done = len(values)
            start = self.counter
            raw = self._raw(bounds.size - done)
            rejected = np.flatnonzero(raw > top[done:])
            stop = int(rejected[0]) if rejected.size else raw.size
            values += (raw[:stop] % bounds[done:done + stop]).tolist()
            if rejected.size:
                self.counter = (start + stop + 1) & _MASK64
        return values

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = list(range(n))
        for i, k in enumerate(self.below_many(range(n, 1, -1))):
            j = i + k
            perm[i], perm[j] = perm[j], perm[i]
        return np.array(perm, dtype=np.int64)

    def sample_indices(self, pool_size: int, count: int) -> list[int]:
        """count indices from range(pool_size); distinct when count <= pool_size."""
        if count <= pool_size:
            idx = list(range(pool_size))
            for i, k in enumerate(self.below_many(range(pool_size, pool_size - count, -1))):
                j = i + k
                idx[i], idx[j] = idx[j], idx[i]
            return idx[:count]
        return self.below_many([pool_size] * count)


def _check_finite(arr: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError("non-finite value in tensor")
    return arr


class Tensor:
    """Float64 array node in a reverse-mode autodiff graph.

    Construction validates finiteness, so any NaN/Inf produced by a public
    operation surfaces immediately as NumericError.
    """

    __slots__ = ("data", "grad", "_parents", "_backward")

    # keep numpy from absorbing Tensor operands into object arrays; binary
    # ops with ndarrays must come back through the reflected methods here
    __array_ufunc__ = None

    def __init__(self, data, _parents=(), _backward=None):
        self.data = _check_finite(np.asarray(data, dtype=np.float64))
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    # ---- basic introspection -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # ---- graph machinery -----------------------------------------------------

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad over the whole graph."""
        if self.data.size != 1:
            raise DimensionError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ---- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data + other.data, (self, other))

        def backward(g):
            _accum(self, _unbroadcast(g, self.data.shape))
            _accum(other, _unbroadcast(g, other.data.shape))

        out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))
        out._backward = lambda g: _accum(self, -g)
        return out

    def __sub__(self, other):
        return self + (-as_tensor(other))

    def __rsub__(self, other):
        return as_tensor(other) + (-self)

    def __mul__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data * other.data, (self, other))

        def backward(g):
            _accum(self, _unbroadcast(g * other.data, self.data.shape))
            _accum(other, _unbroadcast(g * self.data, other.data.shape))

        out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        out = Tensor(self.data / other.data, (self, other))

        def backward(g):
            _accum(self, _unbroadcast(g / other.data, self.data.shape))
            _accum(other, _unbroadcast(-g * self.data / (other.data * other.data),
                                       other.data.shape))

        out._backward = backward
        return out

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, p: float):
        p = float(p)
        out = Tensor(self.data ** p, (self,))
        out._backward = lambda g: _accum(self, g * p * self.data ** (p - 1.0))
        return out

    def matmul(self, other):
        other = as_tensor(other)
        if self.ndim != 2 or other.ndim != 2:
            raise DimensionError("matmul expects 2-d tensors")
        if self.data.shape[1] != other.data.shape[0]:
            raise DimensionError(
                f"matmul shapes do not conform: {self.data.shape} @ {other.data.shape}")
        out = Tensor(self.data @ other.data, (self, other))

        def backward(g):
            _accum(self, g @ other.data.T)
            _accum(other, self.data.T @ g)

        out._backward = backward
        return out

    __matmul__ = matmul

    @property
    def T(self):
        out = Tensor(self.data.T, (self,))
        out._backward = lambda g: _accum(self, g.T)
        return out

    # ---- elementwise nonlinearities ---------------------------------------------

    def exp(self):
        e = np.exp(self.data)
        out = Tensor(e, (self,))
        # the closure holds the array, not `out`, so no reference cycle forms
        out._backward = lambda g: _accum(self, g * e)
        return out

    def log(self):
        out = Tensor(np.log(self.data), (self,))
        out._backward = lambda g: _accum(self, g / self.data)
        return out

    def relu(self):
        out = Tensor(np.maximum(self.data, 0.0), (self,))
        out._backward = lambda g: _accum(self, g * (self.data > 0.0))
        return out

    def clamp(self, lo: float, hi: float):
        out = Tensor(np.clip(self.data, lo, hi), (self,))
        mask = (self.data >= lo) & (self.data <= hi)
        out._backward = lambda g: _accum(self, g * mask)
        return out

    # ---- reductions and reshaping -------------------------------------------

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def backward(g):
            if axis is None:
                _accum(self, np.broadcast_to(g, self.data.shape).copy())
            else:
                gg = g if keepdims else np.expand_dims(g, axis)
                _accum(self, np.broadcast_to(gg, self.data.shape).copy())

        out._backward = backward
        return out

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, shape):
        out = Tensor(self.data.reshape(shape), (self,))
        out._backward = lambda g: _accum(self, g.reshape(self.data.shape))
        return out

    def rows(self, index):
        """Gather rows by integer index; backward scatter-adds."""
        index = np.asarray(index, dtype=np.int64)
        out = Tensor(self.data[index], (self,))

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, index, g)
            _accum(self, full)

        out._backward = backward
        return out


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _accum(t: Tensor, g: np.ndarray):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce a broadcast gradient back to the parent's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def concat(tensors, axis=0) -> Tensor:
    """Differentiable concatenation along an axis."""
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors))
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, a, b in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(a, b)
            _accum(t, g[tuple(sl)])

    out._backward = backward
    return out


class Param:
    """Trainable weight: a leaf tensor plus gradient and momentum slots.

    The leaf Tensor identity persists across optimizer steps so each new
    forward graph connects back to the same parameter.
    """

    def __init__(self, value):
        self.value = as_tensor(np.array(value, dtype=np.float64))
        self.momentum_slot = np.zeros_like(self.value.data)

    @property
    def grad(self) -> np.ndarray:
        g = self.value.grad
        return g if g is not None else np.zeros_like(self.value.data)

    @property
    def shape(self):
        return self.value.data.shape

    def zero_grad(self):
        self.value.grad = None


def affine_forward(x: Tensor, w: Param, b: Param) -> Tensor:
    """x @ W + b with exact gradients into W, b, and x."""
    x = as_tensor(x)
    if x.ndim != 2 or w.value.ndim != 2:
        raise DimensionError("affine_forward expects a 2-d input and weight")
    if x.shape[1] != w.shape[0] or b.shape != (w.shape[1],):
        raise DimensionError(
            f"affine shapes do not conform: x{x.shape} W{w.shape} b{b.shape}")
    return x.matmul(w.value) + b.value


def l2_normalize(x: Tensor) -> Tensor:
    """Scale each row to unit Euclidean norm (differentiable)."""
    x = as_tensor(x)
    flat = x.reshape((1, -1)) if x.ndim == 1 else x
    raw_norms = np.sqrt((flat.data * flat.data).sum(axis=1))
    if np.any(raw_norms < NORM_EPS):
        raise DegenerateInputError("row norm below 1e-12 in l2_normalize")
    norms = ((flat * flat).sum(axis=1, keepdims=True)) ** 0.5
    out = flat / norms
    return out.reshape(x.shape) if x.ndim == 1 else out


def softmax(x: Tensor) -> Tensor:
    """Row-wise softmax with max-shift for stability (differentiable)."""
    x = as_tensor(x)
    shift = x - np.max(x.data, axis=-1, keepdims=True)
    e = shift.exp()
    return e / e.sum(axis=-1, keepdims=True)


def sgd_momentum_step(params, lr: float, momentum: float):
    """slot <- momentum*slot + grad; value <- value - lr*slot; zero grads."""
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ConfigError(f"momentum must be in [0, 1), got {momentum}")
    for p in params:
        g = p.value.grad
        if g is None:
            g = np.zeros_like(p.value.data)
        p.momentum_slot = momentum * p.momentum_slot + g
        p.value.data -= lr * p.momentum_slot
        p.value.grad = None


def check_gradients(loss_fn, params, h: float = 1e-5, max_coords: int = 10,
                    rng: RngState | None = None) -> float:
    """Max relative error between analytic and central-difference gradients.

    loss_fn is a zero-argument closure over the params returning a scalar
    Tensor; it is re-evaluated with perturbed parameter values, so it must be
    deterministic. Per parameter, up to max_coords coordinates are checked
    (all of them when the parameter is small).
    """
    if not 1e-6 <= h <= 1e-4:
        raise ConfigError(f"step h must lie in [1e-6, 1e-4], got {h}")
    rng = rng or RngState(0)
    for p in params:
        p.zero_grad()
    out = loss_fn()
    if out.data.size != 1:
        raise DimensionError("loss_fn must return a scalar")
    out.backward()
    analytic = [np.array(p.grad, copy=True) for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.value.data.reshape(-1)
        ga_flat = ga.reshape(-1)
        n = flat.size
        if n <= max_coords:
            coords = range(n)
        else:
            coords = sorted({rng.below(n) for _ in range(max_coords)})
        for i in coords:
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn().item()
            flat[i] = orig - h
            lm = loss_fn().item()
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            err = abs(ga_flat[i] - numeric) / max(1.0, abs(ga_flat[i]))
            worst = max(worst, err)
    for p in params:
        p.zero_grad()
    return worst
