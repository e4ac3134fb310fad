"""The flattened backward of a batched matmul against a 2-D right operand.

``(B, L, d) @ (d, N)`` — every ``Linear`` and the item-vocabulary output
head — computes each gradient as one GEMM over the ``B*L`` flattened rows
instead of ``B`` per-batch GEMMs followed by a sum over the batch.  These
tests pin the numbers against the batched-then-summed reference, the
allocation profile (no ``(B, d, N)`` stack, no per-replay copies), and
the flattened leading-axis sum in ``_unbroadcast``.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core.vsan import VSAN
from repro.tensor import Tensor, default_dtype, gradcheck
from repro.tensor.tensor import _unbroadcast
from repro.train.trainer import training_step_values


def batched_reference(left, right, grad):
    """Gradients the way the batched form computes them: per-batch GEMMs
    for both products, then a sum of the weight products over the
    leading axes."""
    grad_left = grad @ np.swapaxes(right, -1, -2)
    per_batch = np.swapaxes(left, -1, -2) @ grad
    grad_right = per_batch.reshape((-1,) + per_batch.shape[-2:]).sum(axis=0)
    return grad_left, grad_right


# Each layout builds ``(left, right)`` tensors from float64 arrays and
# returns the leaves whose gradients are checked plus the matmul output.
def contiguous_left(x, w):
    return [x, w], x @ w


def swapaxes_left(x, w):
    # Caser's vertical filters: (B, d, L) view of a (B, L, d) input.
    return [x, w], x.swapaxes(1, 2) @ w


def transposed_right(x, w):
    # SASRec's tied output head: item_embedding.weight.T on the right.
    return [x, w], x @ w.T


LAYOUTS = {
    "contiguous": (contiguous_left, (3, 4, 5), (5, 6)),
    "four-dim-left": (contiguous_left, (2, 3, 4, 5), (5, 6)),
    "swapaxes-left": (swapaxes_left, (3, 5, 4), (5, 6)),
    "transposed-right": (transposed_right, (3, 4, 5), (6, 5)),
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_gradients_match_batched_reference(layout):
    build, left_shape, right_shape = LAYOUTS[layout]
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=left_shape), requires_grad=True)
    w = Tensor(rng.normal(size=right_shape), requires_grad=True)
    (x, w), out = build(x, w)
    grad = rng.normal(size=out.shape)
    out.backward(grad)

    left = x.data.swapaxes(1, 2) if layout == "swapaxes-left" else x.data
    right = w.data.T if layout == "transposed-right" else w.data
    grad_left, grad_right = batched_reference(left, right, grad)
    if layout == "swapaxes-left":
        grad_left = grad_left.swapaxes(1, 2)
    if layout == "transposed-right":
        grad_right = grad_right.T
    np.testing.assert_allclose(x.grad, grad_left, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(w.grad, grad_right, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_gradcheck(layout):
    build, left_shape, right_shape = LAYOUTS[layout]
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=left_shape), requires_grad=True)
    w = Tensor(rng.normal(size=right_shape), requires_grad=True)
    weights = rng.normal(size=build(x, w)[1].shape)
    assert gradcheck(lambda x, w: (build(x, w)[1] * weights).sum(), [x, w])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(16, 9, 31), (4, 5, 3, 7)])
def test_unbroadcast_leading_sum_is_bitwise_the_per_axis_sum(dtype, shape):
    rng = np.random.default_rng(3)
    grad = rng.normal(size=shape).astype(dtype)
    target = shape[2:]
    # C-contiguous and strided-but-ordered layouts (the gradients the
    # bias and matmul backwards hand in) sum in the same row order.
    for layout in (grad, grad[:, ::2]):
        expected = layout.sum(axis=(0, 1))
        got = _unbroadcast(layout, target)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected), (dtype, shape)


def test_output_head_backward_never_builds_the_batch_stack():
    """The batched form materialised a (B, d, N) float32 stack — 49 MB at
    the output head's (128, 9, 48) @ (48, 2001) — before summing it.  One
    flattened GEMM writes the (d, N) gradient directly; the peak is the
    backward's seed-gradient copy (B*L*N floats) plus the two gradients.
    """
    batch, length, dim, items = 128, 9, 48, 2001
    rng = np.random.default_rng(4)
    with default_dtype(np.float32):
        x = Tensor(rng.normal(size=(batch, length, dim)), requires_grad=True)
        w = Tensor(rng.normal(size=(dim, items)), requires_grad=True)
        out = x @ w
        grad = rng.normal(size=out.shape).astype(np.float32)
        tracemalloc.start()
        out.backward(grad)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    stack_bytes = batch * dim * items * 4
    assert w.grad.dtype == np.float32
    assert peak < stack_bytes // 2, (peak, stack_bytes)


def test_replayed_backward_of_a_strided_left_allocates_nothing():
    """A compiled program reruns the same backward closure every step.
    The swapaxes left (Caser's vertical convolution) is copied into a
    cached contiguous buffer, so reruns after the first allocate no new
    arrays."""
    rng = np.random.default_rng(5)
    x = Tensor(rng.normal(size=(64, 30, 48)), requires_grad=True)
    w = Tensor(rng.normal(size=(30, 8)), requires_grad=True)
    out = x.swapaxes(1, 2) @ w
    closure = out._backward
    grad = rng.normal(size=out.shape)

    def rerun():
        w.grad = None
        out._parents[0].grad = None
        closure(grad)
        return w.grad.copy()

    first = rerun()
    tracemalloc.start()
    for _ in range(5):
        again = rerun()
        np.testing.assert_array_equal(again, first)
        del again
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # Only the test's own (30, 8) copy of the weight gradient; the
    # (64, 48, 30) contiguous copy of the left is retained, not remade.
    assert peak < x.data.nbytes // 4, (peak, x.data.nbytes)


def test_compiled_vsan_training_replays_keep_memory_flat():
    """Repeated compiled training steps reuse every buffer: the backward
    GEMM products, the row copies and the gradient accumulators are
    retained, so memory does not grow with the number of replays."""
    model = VSAN(200, 12, dim=16, seed=3)
    model.train()
    rng = np.random.default_rng(6)
    rows = np.zeros((32, 13), dtype=np.int64)
    rows[:, -8:] = rng.integers(1, 201, size=(32, 8))

    def step():
        for p in model.parameters():
            p.grad = None
        return training_step_values(model, rows)

    for _ in range(3):  # trace, then settle allocator pools
        step()
    tracemalloc.start()
    # The first traced step hands out the gradients that stay live on
    # the parameters until the next step replaces them; count from there.
    step()
    settled, _ = tracemalloc.get_traced_memory()
    for _ in range(20):
        step()
    now, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert now - settled < 1 << 14, now - settled
