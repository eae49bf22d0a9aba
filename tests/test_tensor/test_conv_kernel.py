"""The GEMM-layout conv kernel against the einsum formulation it replaced.

``conv2d`` and the batched engine's ``_run_conv`` gather patch rows with
:func:`repro.tensor.functional.patch_rows` and call ``np.matmul`` directly.
On every numpy the kernel must agree with an in-test copy of the old
formulation to rounding, and the batched engine must match sequential
forwards bit for bit (both share ``patch_rows``). numpy does not specify
how it lowers ``einsum`` to BLAS calls; the kernel's operand orders are the
ones numpy 2.4 picks, so only there must every output bit — forward,
weight gradient and input gradient — equal the old formulation's.
"""

import numpy as np
import pytest

from repro.core.batched import BatchedNetworkEvaluator, _State
from repro.core.injector import BayesianFaultInjector
from repro.faults import BernoulliBitFlipModel, FaultConfiguration, TargetSpec, apply_configuration
from repro.nn import LeNet
from repro.tensor import Tensor, conv2d, no_grad
from repro.tensor.functional import im2col_indices, patch_rows


def einsum_conv2d(x, w, b, stride, padding, grad):
    """The replaced kernel: fancy-index im2col + einsum, forward and backward."""
    batch = x.shape[0]
    out_c, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding))) if padding else x
    k, i, j, out_h, out_w = im2col_indices(x.shape, kh, kw, stride, padding)
    cols = xp[:, k, i, j]
    w_mat = w.reshape(out_c, -1)
    out = np.einsum("of,bfp->bop", w_mat, cols, optimize=True)
    if b is not None:
        out = out + b.reshape(1, -1, 1)
    out = out.reshape(batch, out_c, out_h, out_w)
    grad_mat = grad.reshape(batch, out_c, -1)
    gw = np.einsum("bop,bfp->of", grad_mat, cols, optimize=True).reshape(w.shape)
    gcols = np.einsum("of,bop->bfp", w_mat, grad_mat, optimize=True)
    gxp = np.zeros(xp.shape, dtype=x.dtype)
    np.add.at(gxp, (slice(None), k, i, j), gcols)
    gx = gxp[:, :, padding:-padding, padding:-padding] if padding else gxp
    return out, gw, gx


#: whether numpy lowers the old einsum to the sgemm calls the kernel makes
SAME_LOWERING = np.__version__.startswith("2.4.")


def bits(array):
    array = np.ascontiguousarray(array)
    return array.view(np.uint32 if array.dtype == np.float32 else np.uint64)


def assert_same_bits(actual, expected):
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(bits(actual), bits(expected))


#: (batch, in_c, out_c, size, kernel, stride, padding); batch 1 takes the
#: Fortran-ordered gather branch, larger batches the C-ordered one
GEOMETRIES = [
    (8, 3, 8, 12, 3, 1, 1),
    (8, 8, 16, 12, 3, 2, 1),
    (8, 16, 16, 6, 3, 1, 1),
    (8, 32, 64, 3, 3, 2, 1),
    (8, 64, 64, 2, 3, 1, 1),
    (8, 8, 16, 12, 1, 2, 0),
    (6, 3, 6, 12, 5, 1, 0),
    (1, 8, 8, 12, 3, 1, 1),
    (1, 32, 64, 3, 1, 2, 0),
    (1, 64, 64, 2, 3, 1, 1),
]


def kernel_and_einsum(geometry, dtype, layout):
    """(conv2d's out, gw, gx) and the einsum kernel's, on one random case."""
    batch, in_c, out_c, size, kernel, stride, padding = geometry
    rng = np.random.default_rng(sum(geometry))
    if layout == "nhwc":  # a non-contiguous NCHW view, as conv outputs are
        x = rng.normal(size=(batch, size, size, in_c)).astype(dtype).transpose(0, 3, 1, 2)
    else:
        x = rng.normal(size=(batch, in_c, size, size)).astype(dtype)
    w = rng.normal(size=(out_c, in_c, kernel, kernel)).astype(dtype)
    b = rng.normal(size=out_c).astype(dtype)
    xt, wt, bt = (Tensor(a, requires_grad=True) for a in (x, w, b))
    out = conv2d(xt, wt, bt, stride=stride, padding=padding)
    grad = rng.normal(size=out.shape).astype(dtype)
    out.backward(grad)
    return (out.data, wt.grad, xt.grad), einsum_conv2d(x, w, b, stride, padding, grad)


CASES = pytest.mark.parametrize(
    "geometry", GEOMETRIES, ids=lambda g: "b{}c{}o{}h{}k{}s{}p{}".format(*g)
)


class TestConv2dKernel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @CASES
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_forward_and_backward_match_einsum(self, geometry, dtype, layout):
        actual, expected = kernel_and_einsum(geometry, dtype, layout)
        tolerance = 1e-4 if dtype == np.float32 else 1e-10
        for got, want in zip(actual, expected):
            assert got.shape == want.shape and got.dtype == want.dtype
            np.testing.assert_allclose(got, want, rtol=tolerance, atol=tolerance)

    @pytest.mark.skipif(not SAME_LOWERING, reason="einsum lowering is pinned for numpy 2.4 only")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @CASES
    @pytest.mark.parametrize("layout", ["nchw", "nhwc"])
    def test_forward_and_backward_bits_match_einsum(self, geometry, dtype, layout):
        actual, expected = kernel_and_einsum(geometry, dtype, layout)
        for got, want in zip(actual, expected):
            assert_same_bits(got, want)

    def test_rows_layout(self):
        x = np.arange(2 * 2 * 3 * 3, dtype=np.float32).reshape(2, 2, 3, 3)
        rows, out_h, out_w = patch_rows(x, 2, 2, 1, 0)
        assert (out_h, out_w) == (2, 2)
        assert rows.shape == (2 * 4, 2 * 4)
        # image 1, output pixel (0, 1): channel 0 then 1, each a 2x2 window
        assert rows[4 + 1].tolist() == [19, 20, 22, 23, 28, 29, 31, 32]

    def test_padding_reads_zeros(self):
        x = np.ones((2, 1, 2, 2), dtype=np.float32)
        rows, _, _ = patch_rows(x, 3, 3, 1, 1)
        # the top-left output pixel sees the 2x2 image in its bottom-right corner
        assert rows[0].tolist() == [0, 0, 0, 0, 1, 1, 0, 1, 1]


class TestBatchedConv:
    @pytest.fixture()
    def lenet(self):
        model = LeNet(in_channels=3, image_size=12, rng=0).eval()
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3, 12, 12)).astype(np.float32)
        y = rng.integers(0, 10, size=4).astype(np.int64)
        return BayesianFaultInjector(model, x, y, spec=TargetSpec.weights_and_biases(), seed=1)

    @pytest.fixture()
    def resnet(self, tiny_resnet, tiny_images):
        x, y = tiny_images
        return BayesianFaultInjector(tiny_resnet, x, y, spec=TargetSpec.weights_and_biases(), seed=1)

    @staticmethod
    def sequential(injector, module, configuration, x):
        with apply_configuration(injector.model, configuration), no_grad():
            out = conv2d(Tensor(x), module.weight, module.bias, module.stride, module.padding)
        return out.data

    @pytest.mark.parametrize("diverged", [False, True], ids=["shared", "diverged"])
    @pytest.mark.parametrize(
        "which,name,shape",
        [
            ("lenet", "features.0", (4, 3, 12, 12)),
            ("resnet", "stages.1.0.conv1", (8, 8, 8, 8)),
            ("resnet", "stages.1.0.shortcut.0", (8, 8, 8, 8)),
            ("resnet", "stages.3.1.conv2", (1, 64, 2, 2)),
        ],
    )
    def test_matches_sequential_forwards(self, request, which, name, shape, diverged):
        injector = request.getfixturevalue(which)
        module = dict(injector.model.named_modules())[name]
        evaluator = BatchedNetworkEvaluator(injector)
        rng = np.random.default_rng(11)
        configurations = [
            FaultConfiguration.sample(injector.parameter_targets, BernoulliBitFlipModel(1e-2), rng)
            for _ in range(3)
        ]
        k = len(configurations)
        # diverged activations arrive as NHWC-memory views, like conv outputs
        data = rng.normal(size=(k,) + shape[:1] + shape[2:] + shape[1:2]).astype(np.float32)
        data = data.transpose(0, 1, 4, 2, 3)
        entry = data if diverged else np.ascontiguousarray(data[0])
        with np.errstate(all="ignore"):
            state = evaluator._run_conv(module, name, _State(entry, diverged), configurations)
            assert state.diverged
            for index, configuration in enumerate(configurations):
                x = data[index] if diverged else entry
                assert_same_bits(state.data[index], self.sequential(injector, module, configuration, x))
