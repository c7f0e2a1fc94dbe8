"""Minimal dense-tensor substrate with reverse-mode differentiation.

Tensors wrap numpy arrays (float32 for training, float64 for verification
runs) and record a backward closure per operation.  ``backward`` walks the
graph in deterministic topological order and accumulates gradients into
``.grad``.  ``finite_diff_check`` is the independent central-difference
oracle used by every gradient-fidelity test.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 0.7071067811865476
_INV_SQRT_2PI = 0.3989422804014327
_SIGMOID_CLIP = 30.0


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A computation produced NaN or Inf where finite values are required."""


class Tensor:
    """Dense n-dimensional array node in the backward graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(), _backward=None):
        if isinstance(data, Tensor):
            data = data.data
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() requires a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = np.zeros_like(self.data)

    def _accumulate(self, g):
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient of shape {g.shape} for a tensor of shape {self.shape}")
        if self.grad is None:
            # the first write copies, in one pass: closures may return views
            # of their own gradient or of saved arrays, which a later += into
            # this .grad must not write through
            self.grad = np.array(g, dtype=self.data.dtype)
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class ParameterRegistry:
    """Ordered name -> learnable Tensor map owned by one model."""

    def __init__(self):
        self.tensors: dict[str, Tensor] = {}

    def add(self, name: str, array) -> Tensor:
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name {name!r}")
        t = Tensor(array, requires_grad=True)
        self.tensors[name] = t
        return t

    def named_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}

    def zero_grad(self):
        for t in self.tensors.values():
            t.zero_grad()


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum gradient over axes that numpy broadcasting expanded."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _binary(a: Tensor, b: Tensor, out_data, da, db) -> Tensor:
    req = a.requires_grad or b.requires_grad
    out = Tensor(out_data, requires_grad=req, _parents=(a, b))

    def _bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(da(g), a.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(db(g), b.shape))

    out._backward = _bw if req else None
    return out


def _unary(a: Tensor, out_data, da) -> Tensor:
    out = Tensor(out_data, requires_grad=a.requires_grad, _parents=(a,))
    if a.requires_grad:
        out._backward = lambda g: a._accumulate(da(g))
    return out


def _broadcast(op: str, ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


# -- elementwise -----------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, _broadcast("add", np.add, a, b), lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, _broadcast("sub", np.subtract, a, b), lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, _broadcast("mul", np.multiply, a, b),
                   lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, _broadcast("div", np.divide, a, b),
                   lambda g: g / b.data, lambda g: -g * a.data / (b.data * b.data))


def neg(a: Tensor) -> Tensor:
    return _unary(a, -a.data, lambda g: -g)


def log(a: Tensor) -> Tensor:
    return _unary(a, np.log(a.data), lambda g: g / a.data)


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    return _unary(a, out_data, lambda g: g * out_data)


def clamp(a: Tensor, lo: float, hi: float) -> Tensor:
    mask = (a.data >= lo) & (a.data <= hi)
    return _unary(a, np.clip(a.data, lo, hi), lambda g: g * mask)


# -- activations -----------------------------------------------------------

def gelu(a: Tensor) -> Tensor:
    """Exact error-function GELU: x * Phi(x)."""
    x = a.data
    phi_cdf = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    out_data = x * phi_cdf
    # the Gaussian pdf is needed only for the gradient
    return _unary(a, out_data.astype(x.dtype, copy=False),
                  lambda g: g * (phi_cdf + x * (np.exp(-0.5 * x * x) * _INV_SQRT_2PI)))


def sigmoid(a: Tensor) -> Tensor:
    x = np.clip(a.data, -_SIGMOID_CLIP, _SIGMOID_CLIP)
    out_data = 1.0 / (1.0 + np.exp(-x))
    out_data = out_data.astype(a.data.dtype)
    return _unary(a, out_data, lambda g: g * out_data * (1.0 - out_data))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def da(g):
        inner = (g * out_data).sum(axis=axis, keepdims=True)
        return (g - inner) * out_data

    return _unary(a, out_data, da)


# -- structural ops --------------------------------------------------------

def tsum(a: Tensor, axis=None, keepdims=False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def da(g):
        gk = g if keepdims or axis is None else np.expand_dims(g, axis)
        return np.broadcast_to(gk, a.shape)

    return _unary(a, out_data, da)


def tmean(a: Tensor, axis=None, keepdims=False) -> Tensor:
    count = a.data.size if axis is None else math.prod(a.shape[ax] for ax in np.atleast_1d(axis))
    out_data = a.data.mean(axis=axis, keepdims=keepdims)

    def da(g):
        gk = g if keepdims or axis is None else np.expand_dims(g, axis)
        return (np.broadcast_to(gk, a.shape) / count).astype(a.data.dtype)

    return _unary(a, out_data, da)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.shape
    return _unary(a, a.data.reshape(shape), lambda g: g.reshape(orig))


def transpose(a: Tensor) -> Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose expects a 2-d tensor, got shape {a.shape}")
    return _unary(a, a.data.T.copy(), lambda g: g.T)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    index = [slice(None)] * a.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def da(g):
        full = np.zeros_like(a.data)
        full[index] = g
        return full

    return _unary(a, a.data[index].copy(), da)


def concat(tensors, axis: int) -> Tensor:
    shapes = [t.shape for t in tensors]
    base = list(shapes[0])
    for s in shapes[1:]:
        if len(s) != len(base) or any(i != axis and s[i] != base[i] for i in range(len(base))):
            raise ShapeError(f"concat: incompatible shapes {shapes} along axis {axis}")
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    req = any(t.requires_grad for t in tensors)
    out = Tensor(out_data, requires_grad=req, _parents=tuple(tensors))
    sizes = [s[axis] for s in shapes]

    def _bw(g):
        offset = 0
        for t, n in zip(tensors, sizes):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(offset, offset + n)
                t._accumulate(g[tuple(index)])
            offset += n

    out._backward = _bw if req else None
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m, k) @ (k, n) -> (m, n)."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul expects (m,k) @ (k,n), got {ad.shape} @ {bd.shape}")
    return _binary(a, b, ad @ bd, lambda g: g @ bd.T, lambda g: ad.T @ g)


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """(B, in) @ weight.T + bias -> (B, out), with weight shaped (out, in)."""
    return add(matmul(x, transpose(weight)), bias)


def repeat_spatial(v: Tensor, h: int, w: int) -> Tensor:
    """Tile a (B, n) batch of vectors into constant (B, n, h, w) planes."""
    if v.ndim != 2:
        raise ShapeError(f"repeat_spatial expects a (B, n) input, got shape {v.shape}")
    b, n = v.shape
    out_data = np.broadcast_to(v.data[:, :, None, None], (b, n, h, w)).copy()
    return _unary(v, out_data, lambda g: g.sum(axis=(2, 3)))


def _sum_middle(g: np.ndarray, axis: int) -> np.ndarray:
    """Fold every interior index of ``axis`` into one: size n > 3 -> 3."""
    first, middle, last = np.split(g, [1, g.shape[axis] - 1], axis=axis)
    return np.concatenate([first, middle.sum(axis=axis, keepdims=True), last], axis=axis)


def stretch_middle(a: Tensor, h: int, w: int) -> Tensor:
    """Stretch an (N, C, min(h,3), min(w,3)) tile to (N, C, h, w) by
    repeating its middle row and column.

    A zero-padded 3x3 conv of a spatially constant map takes only these
    values (corners, edges, interior), so it equals the same conv on a
    constant tile of that size, stretched.
    """
    if a.ndim != 4 or a.shape[2:] != (min(h, 3), min(w, 3)):
        raise ShapeError(f"stretch_middle: a tile of shape {a.shape} does not stretch to {h}x{w}")
    out_data = a.data
    if h > 3:
        out_data = np.repeat(out_data, (1, h - 2, 1), axis=2)
    if w > 3:
        out_data = np.repeat(out_data, (1, w - 2, 1), axis=3)

    def da(g):
        if h > 3:
            g = _sum_middle(g, 2)
        if w > 3:
            g = _sum_middle(g, 3)
        return g

    return _unary(a, out_data, da)


def global_avg_pool(a: Tensor) -> Tensor:
    """Mean over the spatial dims: (N, C, H, W) -> (N, C)."""
    if a.ndim != 4:
        raise ShapeError(f"global_avg_pool expects an NCHW tensor, got shape {a.shape}")
    h, w = a.shape[2], a.shape[3]
    out_data = a.data.mean(axis=(2, 3))

    def da(g):
        return np.broadcast_to((g / (h * w))[:, :, None, None], a.shape)

    return _unary(a, out_data, da)


def _sum2x2(x: np.ndarray) -> np.ndarray:
    """Sum of each 2x2 block of the spatial dims: (N, C, 2h, 2w) -> (N, C, h, w)."""
    # four strided slices: a reduction over size-2 axes is several times
    # slower, and its summation order would depend on the memory layout
    return x[:, :, 0::2, 0::2] + x[:, :, 0::2, 1::2] + x[:, :, 1::2, 0::2] + x[:, :, 1::2, 1::2]


def _repeat2x2(x: np.ndarray) -> np.ndarray:
    """Nearest 2x upsampling of the spatial dims: (N, C, h, w) -> (N, C, 2h, 2w)."""
    return np.repeat(np.repeat(x, 2, axis=2), 2, axis=3)


def avgpool2(a: Tensor) -> Tensor:
    if a.ndim != 4:
        raise ShapeError(f"avgpool2 expects an NCHW tensor, got shape {a.shape}")
    if a.shape[2] % 2 or a.shape[3] % 2:
        raise ShapeError(f"avgpool2: spatial dims of {a.shape} must be even")
    return _unary(a, _sum2x2(a.data) / 4.0,
                  lambda g: _repeat2x2(g / 4.0))


def upsample_nearest2(a: Tensor) -> Tensor:
    if a.ndim != 4:
        raise ShapeError(f"upsample_nearest2 expects an NCHW tensor, got shape {a.shape}")
    return _unary(a, _repeat2x2(a.data), _sum2x2)


# -- convolution -----------------------------------------------------------

_TAPS = [(dy, dx) for dy in range(3) for dx in range(3)]


def _flat_pad(a_cm: np.ndarray) -> np.ndarray:
    """Channel-major (C, N, H, W) -> zero-padded flat (C, N*(H+2)*(W+2) + 2*(W+3)).

    Each sample gets a one-pixel zero ring, and the flat rows get a W+3
    margin at both ends, so every 3x3 tap of every padded position is a
    column slice: tap (dy, dx) of position q is column q + dy*(W+2) + dx.
    """
    c, n, h, w = a_cm.shape
    m = n * (h + 2) * (w + 2)
    buf = np.zeros((c, m + 2 * (w + 3)), dtype=a_cm.dtype)
    core = buf[:, w + 3:w + 3 + m].reshape(c, n, h + 2, w + 2)
    core[:, :, 1:h + 1, 1:w + 1] = a_cm
    return buf


def _tap_sum(kernel: np.ndarray, buf: np.ndarray, n: int, h: int, w: int) -> np.ndarray:
    """3x3 cross-correlation of a ``_flat_pad`` buffer: the sum over the nine
    taps of ``kernel[:, :, dy, dx] @ shifted slice``, cropped to a contiguous
    channel-major (O, N, H, W).  A tap that falls outside its sample reads
    the zero ring, so no output mixes samples."""
    o, c = kernel.shape[:2]
    m = n * (h + 2) * (w + 2)
    taps = kernel.transpose(2, 3, 0, 1).copy()
    # with one input channel the GEMM is an outer product, which a broadcast
    # multiply does several times faster than BLAS
    product = np.multiply if c == 1 else np.matmul
    acc = product(taps[0, 0], buf[:, :m])
    tmp = np.empty_like(acc)
    for dy, dx in _TAPS[1:]:
        off = dy * (w + 2) + dx
        acc += product(taps[dy, dx], buf[:, off:off + m], out=tmp)
    return acc.reshape(o, n, h + 2, w + 2)[:, :, 1:h + 1, 1:w + 1].copy()


def conv2d(x: Tensor, kernel: Tensor, bias: Tensor | None = None) -> Tensor:
    """Shape-preserving stride-1 cross-correlation plus an optional bias,
    kernels 1x1 or 3x3.

    x: (N, C, H, W); kernel: (O, C, k, k); bias: (O,); zero padding
    (k-1)/2.  A 1x1 conv is one matmul of channel-major data.  A 3x3 conv
    pads the input once into a flat channel-major buffer (``_flat_pad``)
    and sums nine GEMMs of the kernel taps with shifted column slices of
    it (``_tap_sum``); backward reuses the buffer for the kernel gradient,
    and the input gradient is the same tap sum over the padded output
    gradient with the flipped, channel-swapped kernel.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d expects NCHW input and OCkk kernel, got {x.shape}, {kernel.shape}")
    n, c, h, w = x.shape
    o, ck, kh, kw = kernel.shape
    if kh != kw or kh not in (1, 3):
        raise ShapeError(f"conv2d supports 1x1 and 3x3 kernels, got {kh}x{kw}")
    if ck != c:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {ck}")
    if bias is not None and bias.shape != (o,):
        raise ShapeError(f"conv2d bias must have shape ({o},), got {bias.shape}")
    x_cm = x.data.transpose(1, 0, 2, 3)
    if kh == 1:
        cols = x_cm.reshape(c, n * h * w)
        out_cm = (kernel.data.reshape(o, c) @ cols).reshape(o, n, h, w)
    else:
        cols = _flat_pad(x_cm)
        out_cm = _tap_sum(kernel.data, cols, n, h, w)
    if bias is not None:
        out_cm += bias.data[:, None, None, None]
    out_data = out_cm.transpose(1, 0, 2, 3)

    parents = (x, kernel) if bias is None else (x, kernel, bias)
    req = any(p.requires_grad for p in parents)
    out = Tensor(out_data, requires_grad=req, _parents=parents)

    def _bw(g):
        g2 = g.transpose(1, 0, 2, 3).reshape(o, n * h * w)
        if bias is not None and bias.requires_grad:
            bias._accumulate(g2.sum(axis=1))
        if kh == 1:
            if kernel.requires_grad:
                kernel._accumulate((g2 @ cols.T).reshape(o, c, 1, 1))
            if x.requires_grad:
                gx = kernel.data.reshape(o, c).T @ g2
                x._accumulate(gx.reshape(c, n, h, w).transpose(1, 0, 2, 3))
            return
        gbuf = _flat_pad(g2.reshape(o, n, h, w))
        if kernel.requires_grad:
            # the zero ring of gbuf drops every product at a non-output position
            m = n * (h + 2) * (w + 2)
            gcore = gbuf[:, w + 3:w + 3 + m]
            gk = np.empty_like(kernel.data)
            for dy, dx in _TAPS:
                off = dy * (w + 2) + dx
                gk[:, :, dy, dx] = gcore @ cols[:, off:off + m].T
            kernel._accumulate(gk)
        if x.requires_grad:
            # grad-x is the convolution of g with the flipped, channel-swapped kernel
            flipped = kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            x._accumulate(_tap_sum(flipped, gbuf, n, h, w).transpose(1, 0, 2, 3))

    out._backward = _bw if req else None
    return out


# -- backward pass ---------------------------------------------------------

def _topo_order(root: Tensor) -> list[Tensor]:
    order, visited = [], set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))
    return order  # inputs first, root last


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into ``.grad`` of every requires-grad leaf
    reachable from ``loss``.

    Accumulation order is the fixed reverse topological order.  Leaves keep
    ``.grad``; an interior node's gradient is freed (``.grad = None``) as
    soon as its closure has passed it on.  The graph itself stays, so a
    repeat ``backward`` over it adds one more copy of the leaf gradients.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    if not np.isfinite(loss.data).all():
        raise NonFiniteError("backward called on a non-finite loss")
    order = _topo_order(loss)
    loss._accumulate(np.ones_like(loss.data))
    for node in reversed(order):
        if node._backward is not None and node.requires_grad:
            node._backward(node.grad)
            node.grad = None


def ancestors(t: Tensor) -> set[int]:
    """ids of every tensor in ``t``'s backward graph, including ``t``."""
    return {id(node) for node in _topo_order(t)}


# -- finite-difference oracle ----------------------------------------------

def finite_diff_check(f, params, eps=1e-5, max_probes=None, rng=None) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f(params) -> scalar Tensor`` must be deterministic (stochastic draws
    frozen).  Relative error per coordinate is
    |analytic - central| / max(1, |central|).  Probes every coordinate
    unless ``max_probes`` caps the count (coordinates then sampled by rng);
    a cap below 1 would check nothing, so it is a ValueError.
    """
    if max_probes is not None and max_probes < 1:
        raise ValueError(f"max_probes must be at least 1, got {max_probes}")
    for t in params:
        t.requires_grad = True
        t.zero_grad()
    loss = f(params)
    backward(loss)
    analytic = [t.grad.copy() for t in params]

    coords = [(pi, ci) for pi, t in enumerate(params) for ci in range(t.data.size)]
    if max_probes is not None and len(coords) > max_probes:
        rng = rng or np.random.default_rng(0)
        picks = rng.choice(len(coords), size=max_probes, replace=False)
        coords = [coords[i] for i in sorted(picks)]

    worst = 0.0
    for pi, ci in coords:
        flat = params[pi].data.reshape(-1)
        saved = flat[ci]
        flat[ci] = saved + eps
        f_plus = f(params).item()
        flat[ci] = saved - eps
        f_minus = f(params).item()
        flat[ci] = saved
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NonFiniteError(f"perturbed evaluation non-finite at param {pi} coord {ci}")
        central = (f_plus - f_minus) / (2.0 * eps)
        a = analytic[pi].reshape(-1)[ci]
        worst = max(worst, abs(a - central) / max(1.0, abs(central)))
    return worst
