"""Convolution, pooling, padding, and softmax primitives.

Convolution is implemented with the im2col transformation: each receptive
field is gathered into one row of a patch matrix (:func:`patch_rows`), so
the convolution becomes one ``np.matmul`` against the flattened kernel.
That keeps both the forward pass and the gradient fully vectorised, which
matters because BDLFI campaigns run thousands of forward passes per
probability point.

Layout convention: images are NCHW (batch, channels, height, width) —
the layout the paper's ResNet-18 uses. A convolution's output is an NCHW
*view* of pixel-major memory (the GEMM's natural output); downstream ops
are elementwise or make their input contiguous before reducing.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = [
    "pad2d",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "softmax",
    "log_softmax",
    "im2col_indices",
    "patch_rows",
]


def im2col_indices(
    x_shape: tuple[int, int, int, int], kh: int, kw: int, stride: int, padding: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
    """Compute the gather indices that turn an NCHW image into patch rows.

    Returns ``(k, i, j, out_h, out_w)`` where ``k, i, j`` index channel, row
    and column respectively, each of shape ``(C*kh*kw, out_h*out_w)``.
    Results are cached on the geometry (batch size is irrelevant), so the
    returned index arrays are shared and read-only.
    """
    return _im2col(*x_shape[1:], kh, kw, stride, padding)


#: gather indices depend only on the geometry, not on the batch size or
#: data, so every forward pass of a fixed architecture hits after the first
@functools.lru_cache(maxsize=128)
def _im2col(channels: int, height: int, width: int, kh: int, kw: int, stride: int, padding: int):
    out_h = (height + 2 * padding - kh) // stride + 1
    out_w = (width + 2 * padding - kw) // stride + 1
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"kernel ({kh}x{kw}, stride={stride}, padding={padding}) larger than "
            f"padded input ({height}x{width})"
        )
    i0 = np.repeat(np.arange(kh), kw)
    i0 = np.tile(i0, channels)
    i1 = stride * np.repeat(np.arange(out_h), out_w)
    j0 = np.tile(np.arange(kw), kh * channels)
    j1 = stride * np.tile(np.arange(out_w), out_h)
    i = i0.reshape(-1, 1) + i1.reshape(1, -1)
    j = j0.reshape(-1, 1) + j1.reshape(1, -1)
    k = np.repeat(np.arange(channels), kh * kw).reshape(-1, 1)
    for index in (k, i, j):
        index.flags.writeable = False
    return k, i, j, out_h, out_w


def pad2d(x: Tensor, padding: int) -> Tensor:
    """Zero-pad the last two (spatial) axes of an NCHW tensor."""
    if padding == 0:
        return x
    pad_width = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    out_data = np.pad(x.data, pad_width)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(grad[:, :, padding:-padding, padding:-padding])

    return Tensor._make(out_data, (x,), _backward, "pad2d")


@functools.lru_cache(maxsize=128)
def _patch_index(channels: int, height: int, width: int, kh: int, kw: int, stride: int, padding: int):
    """Gather index into one flattened image, shape ``(P, C*kh*kw)`` (shared, read-only).

    Padding positions point one past the image, at the zero that
    :func:`patch_rows` appends, so no padded copy is ever built.
    """
    k, i, j, _, _ = _im2col(channels, height, width, kh, kw, stride, padding)
    i, j = i - padding, j - padding
    inside = (i >= 0) & (i < height) & (j >= 0) & (j < width)
    index = np.where(inside, (k * height + i) * width + j, channels * height * width)
    index = np.ascontiguousarray(index.T)
    index.flags.writeable = False
    return index


def patch_rows(x: np.ndarray, kh: int, kw: int, stride: int, padding: int) -> tuple[np.ndarray, int, int]:
    """im2col in GEMM layout: ``(..., B, C, H, W)`` → ``(..., B*P, C*kh*kw)`` patch rows.

    Row ``b*P + p`` holds the receptive field of output pixel ``p`` of image
    ``b``, so a convolution is one ``np.matmul(rows, w_mat.T)`` per leading
    index, and the batched engine's per-configuration products are the
    exact sgemm calls ``conv2d`` makes. The rows are one ``np.take`` of a
    cached per-image index. They are C-ordered, except a single image's,
    which come back Fortran-ordered: sgemm's small-matrix kernels round
    differently by operand order, and these are the orders numpy 2.4's
    ``einsum`` fed it for the formulation this kernel replaced, so results
    there stay bit-identical to it (pinned by
    ``tests/test_tensor/test_conv_kernel.py``).
    ``x`` may have any strides. Returns ``(rows, out_h, out_w)``.
    """
    *lead, batch, channels, height, width = x.shape
    _, _, _, out_h, out_w = _im2col(channels, height, width, kh, kw, stride, padding)
    index = _patch_index(channels, height, width, kh, kw, stride, padding)
    # each image flattened, plus one trailing zero for the padding positions
    flat = np.empty(tuple(lead) + (batch, channels * height * width + 1), dtype=x.dtype)
    flat[..., :-1].reshape(x.shape)[...] = x
    flat[..., -1] = 0
    if batch == 1:
        rows = np.take(flat, index.T, axis=-1).swapaxes(-1, -2)
    else:
        rows = np.take(flat, index, axis=-1)
    return rows.reshape(tuple(lead) + (batch * index.shape[0], index.shape[1])), out_h, out_w


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D convolution (cross-correlation) over an NCHW input.

    ``weight`` has shape ``(out_channels, in_channels, kh, kw)`` and ``bias``
    (optional) shape ``(out_channels,)``.
    """
    batch, in_c, _, _ = x.shape
    out_c, w_in_c, kh, kw = weight.shape
    if in_c != w_in_c:
        raise ValueError(f"input has {in_c} channels but weight expects {w_in_c}")

    rows, out_h, out_w = patch_rows(x.data, kh, kw, stride, padding)
    w_mat = weight.data.reshape(out_c, -1)  # (out_c, C*kh*kw)
    out = np.matmul(rows, w_mat.T)  # (batch*P, out_c)
    if bias is not None:
        out = out + bias.data
    out_data = out.reshape(batch, out_h, out_w, out_c).transpose(0, 3, 1, 2)

    parents = (x, weight) if bias is None else (x, weight, bias)

    def _backward(grad: np.ndarray) -> None:
        # (batch*P, out_c); operand orders below are pinned like the forward's
        grad_rows = grad.reshape(batch, out_c, -1).transpose(0, 2, 1).reshape(-1, out_c)
        if weight.requires_grad:
            gw = np.matmul(np.ascontiguousarray(rows.T), grad_rows).T
            weight._accumulate(gw.reshape(weight.shape).astype(weight.dtype))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.reshape(batch, out_c, -1).sum(axis=(0, 2)).astype(bias.dtype))
        if x.requires_grad:
            gcols = np.matmul(grad_rows, w_mat).reshape(batch, -1, w_mat.shape[1]).transpose(0, 2, 1)
            k, i, j, _, _ = im2col_indices(x.shape, kh, kw, stride, padding)
            gx_padded = np.zeros(
                (batch, in_c, x.shape[2] + 2 * padding, x.shape[3] + 2 * padding), dtype=x.dtype
            )
            # Scatter-add patch gradients back into the padded image.
            np.add.at(gx_padded, (slice(None), k, i, j), gcols)
            if padding:
                gx = gx_padded[:, :, padding:-padding, padding:-padding]
            else:
                gx = gx_padded
            x._accumulate(gx)

    # Exact multiply-add cost for the profiler: the output shape alone
    # cannot recover the receptive-field size, so pass it explicitly.
    conv_flops = 2.0 * out_data.size * (w_in_c * kh * kw)
    return Tensor._make(out_data, parents, _backward, "conv2d", flops=conv_flops)


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over non-overlapping (or strided) windows of an NCHW tensor."""
    stride = stride or kernel_size
    batch, channels, height, width = x.shape
    k, i, j, out_h, out_w = im2col_indices((batch, 1, height, width), kernel_size, kernel_size, stride, 0)

    # View each channel independently: (batch*channels, 1, H, W)
    flat = x.data.reshape(batch * channels, 1, height, width)
    cols = flat[:, k, i, j]  # (B*C, k*k, P)
    arg = cols.argmax(axis=1)  # (B*C, P)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    out_data = out.reshape(batch, channels, out_h, out_w)

    def _backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch * channels, -1)  # (B*C, P)
        gcols = np.zeros_like(cols)
        np.put_along_axis(gcols, arg[:, None, :], grad_flat[:, None, :], axis=1)
        gx = np.zeros((batch * channels, 1, height, width), dtype=x.dtype)
        np.add.at(gx, (slice(None), k, i, j), gcols)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(
        out_data, (x,), _backward, "max_pool2d", flops=float(out_data.size) * kernel_size * kernel_size
    )


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over windows of an NCHW tensor."""
    stride = stride or kernel_size
    batch, channels, height, width = x.shape
    k, i, j, out_h, out_w = im2col_indices((batch, 1, height, width), kernel_size, kernel_size, stride, 0)

    flat = x.data.reshape(batch * channels, 1, height, width)
    cols = flat[:, k, i, j]
    out = cols.mean(axis=1)
    out_data = out.reshape(batch, channels, out_h, out_w)
    window = kernel_size * kernel_size

    def _backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(batch * channels, 1, -1) / window
        gcols = np.broadcast_to(grad_flat, cols.shape)
        gx = np.zeros((batch * channels, 1, height, width), dtype=x.dtype)
        np.add.at(gx, (slice(None), k, i, j), gcols)
        x._accumulate(gx.reshape(x.shape))

    return Tensor._make(
        out_data, (x,), _backward, "avg_pool2d", flops=float(out_data.size) * kernel_size * kernel_size
    )


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over all spatial positions: NCHW → NC.

    The input is made C-contiguous before reducing: numpy's pairwise
    summation visits elements in memory order, so the mean's low-order bits
    would otherwise depend on the stride layout upstream ops produced (a
    convolution returns an NCHW view of pixel-major memory) — and the
    batched fast path must reproduce the standard path bit-for-bit.
    """
    if not x.data.flags["C_CONTIGUOUS"]:
        x = _as_contiguous(x)
    return x.mean(axis=(2, 3))


def _as_contiguous(x: Tensor) -> Tensor:
    """C-ordered copy of ``x`` as a tape-preserving identity op."""
    out_data = np.ascontiguousarray(x.data)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate(grad)

    return Tensor._make(out_data, (x,), _backward, "contiguous")


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out_data = e / e.sum(axis=axis, keepdims=True)

    def _backward(grad: np.ndarray) -> None:
        # dL/dx = s * (g - sum(g * s))
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate((out_data * (grad - dot)).astype(x.dtype))

    return Tensor._make(out_data, (x,), _backward, "softmax")


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - log_z
    soft = np.exp(out_data)

    def _backward(grad: np.ndarray) -> None:
        x._accumulate((grad - soft * grad.sum(axis=axis, keepdims=True)).astype(x.dtype))

    return Tensor._make(out_data, (x,), _backward, "log_softmax")
