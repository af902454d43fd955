"""Forward values, reverse-mode gradients, and error contracts of the tape core."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from raftlab import tape as tp
from raftlab.errors import (
    ContractError,
    DegenerateRepresentationError,
    DomainError,
    EmptyBatchError,
    ShapeError,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)


def mat(rows, cols, min_value=-10.0, max_value=10.0):
    return arrays(
        np.float64,
        (rows, cols),
        elements=st.floats(min_value=min_value, max_value=max_value, allow_nan=False),
    )


def fd_scalar(fn, arrays_in, step=1e-5):
    """Central finite differences of a scalar function of numpy arrays."""
    grads = []
    for i, a in enumerate(arrays_in):
        g = np.zeros_like(a, dtype=np.float64)
        flat = g.reshape(-1)
        base = [np.array(x, dtype=np.float64) for x in arrays_in]
        for j in range(flat.size):
            hi = [x.copy() for x in base]
            lo = [x.copy() for x in base]
            hi[i].reshape(-1)[j] += step
            lo[i].reshape(-1)[j] -= step
            flat[j] = (fn(hi) - fn(lo)) / (2 * step)
        grads.append(g)
    return grads


def assert_grad_close(analytic, numeric, rtol=1e-4, atol=1e-7):
    np.testing.assert_allclose(analytic, numeric, rtol=rtol, atol=atol)


# ---------------------------------------------------------------------------
# tensors, constants, and tape bookkeeping


class TestTensorBasics:
    def test_constant_has_no_tape(self):
        c = tp.constant([1.0, 2.0])
        assert c.tape is None and c.node is None

    def test_ops_on_constants_stay_tape_free(self):
        c = tp.add(tp.constant([1.0]), tp.constant([2.0]))
        assert c.tape is None
        np.testing.assert_allclose(c.data, [3.0])

    def test_item_requires_scalar(self):
        t = tp.Tape()
        assert t.leaf(np.array(3.5)).item() == 3.5
        with pytest.raises(ContractError):
            t.leaf(np.array([1.0, 2.0])).item()


class TestBackwardContract:
    def test_backward_needs_scalar(self):
        t = tp.Tape()
        a = t.leaf(np.array([1.0, 2.0]))
        with pytest.raises(ContractError):
            t.backward(a)

    def test_backward_rejects_foreign_tensor(self):
        t1, t2 = tp.Tape(), tp.Tape()
        loss = tp.sum_all(t2.leaf(np.array([1.0])))
        with pytest.raises(ContractError):
            t1.backward(loss)

    @pytest.mark.parametrize("op", [tp.add, tp.mul, tp.matmul])
    def test_operands_on_two_tapes_are_rejected(self, op):
        a, b = tp.Tape().leaf(np.eye(2)), tp.Tape().leaf(np.eye(2))
        with pytest.raises(ContractError, match="different tapes"):
            op(a, b)
        with pytest.raises(ContractError, match="different tapes"):
            op(a, tp.add(tp.constant(np.eye(2)), b))

    def test_constant_lookup_rejected(self):
        t = tp.Tape()
        a = t.leaf(np.array([1.0]))
        g = t.backward(tp.sum_all(a))
        with pytest.raises(ContractError):
            g[tp.constant([1.0])]

    def test_untouched_leaf_gets_zeros(self):
        t = tp.Tape()
        a = t.leaf(np.array([1.0, 2.0]))
        unused = t.leaf(np.array([[3.0, 4.0]]))
        g = t.backward(tp.sum_all(a))
        np.testing.assert_array_equal(g[unused], np.zeros((1, 2)))

    def test_two_backwards_are_bit_identical(self):
        t = tp.Tape()
        a = t.leaf(np.arange(6, dtype=np.float64).reshape(2, 3) + 1.0)
        loss = tp.sum_all(tp.mul(a, a))
        g1 = t.backward(loss)[a].copy()
        g2 = t.backward(loss)[a]
        assert g1.tobytes() == g2.tobytes()

    def test_shared_contribution_is_not_added_into(self):
        # add hands one upstream array to both a and b; a's later
        # contribution must not be added into the array b also holds.
        rng = np.random.default_rng(13)
        c, d = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        t = tp.Tape()
        a, b = t.leaf(rng.normal(size=(2, 3))), t.leaf(rng.normal(size=(2, 3)))
        u = tp.mul(a, tp.constant(c))
        v = tp.add(a, b)
        g = t.backward(tp.sum_all(tp.mul(tp.add(u, v), tp.constant(d))))
        np.testing.assert_array_equal(g[b], d)
        np.testing.assert_allclose(g[a], d * (1.0 + c))

    def test_scalar_used_three_times_gets_every_contribution(self):
        # The second contribution to a 0-d node starts an accumulator that
        # the third is added into in place; a NumPy scalar there would drop it.
        t = tp.Tape()
        x = t.leaf(np.array(2.0))
        loss = tp.add(tp.add(tp.scale(x, 1.0), tp.scale(x, 2.0)), tp.scale(x, 3.0))
        assert t.backward(loss)[x] == 6.0

    def test_sum_backward_is_ones(self):
        t = tp.Tape()
        a = t.leaf(np.zeros((3, 2)))
        g = t.backward(tp.sum_all(a))
        np.testing.assert_array_equal(g[a], np.ones((3, 2)))

    def test_squared_norm_gradient_doubles_input(self):
        t = tp.Tape()
        a = t.leaf(np.array([1.0, 2.0]))
        loss = tp.sum_all(tp.mul(a, a))
        np.testing.assert_allclose(t.backward(loss)[a], [2.0, 4.0])


class TestGradientDestinations:
    """Leaves bound with `grad=` receive their gradient in that array."""

    @staticmethod
    def two_layer_loss(x, w, b, s, v):
        # Two uses of w, as the two views of a per-view step make, and a
        # row scaling whose VJP has no out= path.
        def branch(rows):
            h = tp.relu(tp.matmul(rows, w, b))
            return tp.l2_normalize(tp.matmul(tp.scale_rows(h, s), v))

        return tp.batch_mean(tp.squared_distance(branch(x[0]), branch(x[1])))

    def arrays(self):
        rng = np.random.default_rng(11)
        x = [tp.constant(rng.normal(size=(5, 4))) for _ in range(2)]
        return x, [rng.normal(size=(4, 6)), rng.normal(size=6),
                   rng.uniform(0.5, 2.0, size=5), rng.normal(size=(6, 3))]

    def gradients(self, bound: bool):
        x, params = self.arrays()
        t = tp.Tape()
        dests = [np.full_like(p, np.nan) for p in params] if bound else [None] * len(params)
        leaves = [t.leaf(p, grad=d) for p, d in zip(params, dests)]
        loss = self.two_layer_loss(x, *leaves)
        return t, loss, leaves, dests

    def test_bound_leaf_receives_the_table_bits(self):
        t, loss, leaves, _ = self.gradients(bound=False)
        table = t.backward(loss)
        t2, loss2, leaves2, dests = self.gradients(bound=True)
        bound = t2.backward(loss2)
        for leaf, leaf2, dest in zip(leaves, leaves2, dests):
            assert bound[leaf2] is dest
            assert dest.tobytes() == table[leaf].tobytes()

    def test_leaf_used_twice_accumulates_both_contributions(self):
        rng = np.random.default_rng(12)
        a = rng.normal(size=(3, 3))
        x1, x2 = rng.normal(size=(4, 3)), rng.normal(size=(4, 3))
        # Twice in one record, where add hands the same upstream to both.
        t = tp.Tape()
        dest = np.full((3, 3), np.nan)
        leaf = t.leaf(a, grad=dest)
        t.backward(tp.sum_all(tp.add(leaf, leaf)))
        np.testing.assert_array_equal(dest, np.full((3, 3), 2.0))
        # Twice in one matmul record, and across two records.
        for build in (lambda w: tp.matmul(w, w),
                      lambda w: tp.add(tp.matmul(x1, w), tp.matmul(x2, w))):
            t, t_ref = tp.Tape(), tp.Tape()
            dest = np.full((3, 3), np.nan)
            leaf, ref = t.leaf(a, grad=dest), t_ref.leaf(a)
            t.backward(tp.sum_all(build(leaf)))
            expected = t_ref.backward(tp.sum_all(build(ref)))[ref]
            assert dest.tobytes() == expected.tobytes()
        np.testing.assert_allclose(dest, (x1 + x2).T @ np.ones((4, 3)))

    def test_stop_gradient_leaves_the_destination_to_the_live_path(self):
        rng = np.random.default_rng(13)
        a = rng.normal(size=(3, 3))
        x1, x2 = tp.constant(rng.normal(size=(4, 3))), tp.constant(rng.normal(size=(4, 3)))

        def frozen(w):
            return tp.matmul(x1, tp.stop_gradient(w))

        def live(w):
            return tp.matmul(x2, w)

        t = tp.Tape()
        dest = np.full((3, 3), np.nan)
        t.backward(tp.sum_all(frozen(t.leaf(a, grad=dest))))
        np.testing.assert_array_equal(dest, np.zeros((3, 3)))
        # In the first build the stop_gradient record replays first: its VJP
        # is offered the destination and must leave it to the live matmul.
        for build in (lambda w: tp.add(live(w), frozen(w)),
                      lambda w: tp.add(frozen(w), live(w))):
            t, t_ref = tp.Tape(), tp.Tape()
            dest = np.full((3, 3), np.nan)
            leaf, ref = t.leaf(a, grad=dest), t_ref.leaf(a)
            t.backward(tp.sum_all(build(leaf)))
            expected = t_ref.backward(tp.sum_all(build(ref)))[ref]
            assert dest.tobytes() == expected.tobytes()
            np.testing.assert_allclose(dest, x2.data.T @ np.ones((4, 3)))

    def test_two_backwards_on_one_tape_are_bit_identical(self):
        t, loss, _, dests = self.gradients(bound=True)
        unused_dest = np.full((2, 2), np.nan)
        unused = t.leaf(np.ones((2, 2)), grad=unused_dest)
        t.backward(loss)
        first = [d.copy() for d in dests]
        for d in dests + [unused_dest]:
            d.fill(np.nan)
        t.backward(loss)
        for d, d_first in zip(dests, first):
            assert d.tobytes() == d_first.tobytes()
        np.testing.assert_array_equal(t.backward(loss)[unused], np.zeros((2, 2)))

    def test_destination_must_match_the_leaf(self):
        with pytest.raises(ShapeError):
            tp.Tape().leaf(np.zeros((2, 3)), grad=np.zeros(6))


# ---------------------------------------------------------------------------
# per-op forward values


class TestWorkspace:
    """A tape over a Workspace computes the bits of a fresh tape, from
    buffers it keeps across tapes."""

    @staticmethod
    def graph(t, x, w, v):
        # add hands one upstream array to a and b, and a has a second
        # consumer; the last branch runs on constants that carry the tape.
        wl, vl = t.leaf(w), t.leaf(v)
        a = tp.relu(tp.matmul(tp.constant(x), wl))
        b = tp.matmul(tp.constant(x), wl)
        z = tp.l2_normalize(tp.matmul(tp.add(a, b), vl))
        z2 = tp.l2_normalize(tp.matmul(a, vl))
        target = tp.l2_normalize(tp.matmul(tp.relu(tp.matmul(tp.Tensor(x, t), w)), v))
        n = x.shape[0] // 2
        align = tp.squared_distance(tp.row_slice(z, 0, n), tp.row_slice(z, n, 2 * n))
        loss = tp.add(tp.batch_mean(align), tp.batch_mean(tp.squared_distance(z2, target)))
        return loss, (wl, vl), (z, z2, target)

    def test_reused_workspace_gives_the_bits_of_fresh_tapes(self):
        rng = np.random.default_rng(5)
        w, v = rng.normal(size=(4, 6)), rng.normal(size=(6, 3))
        ws = tp.Workspace()
        held = None
        # A shorter batch between two full ones, as at an epoch's end.
        for rows in (8, 4, 8):
            x = rng.normal(size=(rows, 4))
            bits = []
            for t in (tp.Tape(), tp.Tape(ws)):
                loss, leaves, outs = self.graph(t, x, w, v)
                grads = t.backward(loss)
                bits.append([loss.data.tobytes()] + [o.data.tobytes() for o in outs]
                            + [grads[leaf].tobytes() for leaf in leaves])
            assert bits[0] == bits[1]
            assert outs[2].tape is t and outs[2].node is None
            if held is None:
                held = [id(buf) for buf in ws.bufs]
            assert [id(buf) for buf in ws.bufs] == held

    @pytest.mark.parametrize("bound", [False, True], ids=["workspace", "destination"])
    def test_row_slice_gradient_is_zero_outside_the_slice(self, bound):
        # Stale NaN in the buffer the VJP writes into must not survive
        # outside rows 1:4.
        x = np.arange(18.0).reshape(6, 3)
        ws = tp.Workspace()
        for _ in range(2):
            for buf in ws.bufs:
                buf.fill(np.nan)
            t = tp.Tape(ws)
            xl = t.leaf(x, grad=np.full(x.shape, np.nan) if bound else None)
            grads = t.backward(tp.sum_all(tp.exp(tp.row_slice(xl, 1, 4))))
        assert bound or ws.bufs
        expected = np.zeros_like(x)
        expected[1:4] = np.exp(x[1:4])
        np.testing.assert_array_equal(grads[xl], expected)


class TestForwardValues:
    def test_matmul_identity(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = tp.matmul(tp.constant(np.eye(2)), tp.constant(a))
        np.testing.assert_array_equal(out.data, a)

    def test_matmul_row_times_column(self):
        out = tp.matmul(tp.constant([[1.0, 2.0]]), tp.constant([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tp.matmul(tp.constant(np.ones((2, 3))), tp.constant(np.ones((2, 3))))

    def test_add_broadcasts_bias_row(self):
        out = tp.add(tp.constant(np.zeros((2, 3))), tp.constant([1.0, 2.0, 3.0]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_relu_clamps_negatives(self):
        out = tp.relu(tp.constant([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_propagates_nan(self):
        out = tp.relu(tp.constant([np.nan, -1.0, 2.0]))
        assert np.isnan(out.data[0])
        np.testing.assert_array_equal(out.data[1:], [0.0, 2.0])

    def test_matmul_bias_is_bitwise_add_of_matmul(self):
        rng = np.random.default_rng(9)
        a, w, b = rng.normal(size=(5, 4)), rng.normal(size=(4, 3)), rng.normal(size=3)
        t, t_ref = tp.Tape(), tp.Tape()
        fused = [t.leaf(v) for v in (a, w, b)]
        split = [t_ref.leaf(v) for v in (a, w, b)]
        out = tp.matmul(*fused)
        ref = tp.add(tp.matmul(split[0], split[1]), split[2])
        assert out.data.tobytes() == ref.data.tobytes()
        g = t.backward(tp.sum_all(tp.mul(out, out)))
        g_ref = t_ref.backward(tp.sum_all(tp.mul(ref, ref)))
        for leaf, leaf_ref in zip(fused, split):
            assert g[leaf].tobytes() == g_ref[leaf_ref].tobytes()

    def test_matmul_bias_shape_checked(self):
        with pytest.raises(ShapeError):
            tp.matmul(tp.constant(np.ones((2, 3))), tp.constant(np.ones((3, 4))),
                      tp.constant(np.ones(3)))

    def test_relu_derivative_zero_at_kink(self):
        t = tp.Tape()
        a = t.leaf(np.array([-1.0, 0.0, 2.0]))
        g = t.backward(tp.sum_all(tp.relu(a)))
        np.testing.assert_array_equal(g[a], [0.0, 0.0, 1.0])

    def test_log_of_exp_recovers_exponent(self):
        out = tp.log(tp.constant([np.exp(-8.0)]))
        np.testing.assert_allclose(out.data, [-8.0])

    def test_log_rejects_nonpositive(self):
        for bad in ([0.0], [-1.0]):
            with pytest.raises(DomainError):
                tp.log(tp.constant(bad))

    def test_batch_mean_averages_vector(self):
        assert tp.batch_mean(tp.constant([2.0, 4.0])).item() == 3.0

    def test_batch_mean_rejects_empty(self):
        with pytest.raises(EmptyBatchError):
            tp.batch_mean(tp.constant(np.zeros(0)))

    def test_batch_mean_rejects_matrix(self):
        # A constant matrix is a stack of vectors; a tracked one is refused,
        # since the VJP is 1-D.
        with pytest.raises(ShapeError):
            tp.batch_mean(tp.Tape().leaf(np.zeros((2, 2))))

    def test_squared_distance_rowwise(self):
        d = tp.squared_distance(tp.constant([[1.0, 0.0]]), tp.constant([[0.0, 1.0]]))
        np.testing.assert_allclose(d.data, [2.0])

    def test_squared_distance_antipodal_units(self):
        d = tp.squared_distance(tp.constant([[0.6, 0.8]]), tp.constant([[-0.6, -0.8]]))
        np.testing.assert_allclose(d.data, [4.0])

    def test_l2_normalize_row(self):
        out = tp.l2_normalize(tp.constant([[3.0, 4.0]]))
        np.testing.assert_allclose(out.data, [[0.6, 0.8]])

    def test_l2_normalize_rejects_zero_row(self):
        with pytest.raises(DegenerateRepresentationError):
            tp.l2_normalize(tp.constant([[0.0, 0.0]]))

    def test_row_slice_takes_rows_and_checks_bounds(self):
        a = np.arange(12.0).reshape(4, 3)
        np.testing.assert_array_equal(tp.row_slice(tp.constant(a), 1, 3).data, a[1:3])
        for lo, hi in ((2, 2), (-1, 2), (0, 5)):
            with pytest.raises(ShapeError):
                tp.row_slice(tp.constant(a), lo, hi)
        with pytest.raises(ShapeError):
            tp.row_slice(tp.constant(np.zeros(3)), 0, 1)

    def test_transpose_round_trip(self):
        a = np.arange(6, dtype=np.float64).reshape(2, 3)
        out = tp.transpose(tp.transpose(tp.constant(a)))
        np.testing.assert_array_equal(out.data, a)

    def test_row_dot_matches_numpy(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose(
            tp.row_dot(tp.constant(a), tp.constant(b)).data, (a * b).sum(axis=1)
        )

    def test_scale_rows_multiplies_each_row(self):
        a = np.ones((2, 3))
        s = np.array([2.0, -1.0])
        out = tp.scale_rows(tp.constant(a), tp.constant(s))
        np.testing.assert_allclose(out.data, a * s[:, None])

    def test_row_add_offsets_each_row(self):
        a = np.zeros((2, 3))
        s = np.array([2.0, -1.0])
        out = tp.row_add(tp.constant(a), tp.constant(s))
        np.testing.assert_allclose(out.data, a + s[:, None])

    def test_softmax_cross_entropy_uniform_logits(self):
        logits = tp.constant(np.zeros((2, 4)))
        labels = np.array([0, 3])
        loss = tp.softmax_cross_entropy(logits, labels)
        np.testing.assert_allclose(loss.item(), np.log(4.0))


# ---------------------------------------------------------------------------
# gradient-blocking ops


class TestGradientBlocking:
    def test_stop_gradient_freezes_one_factor(self):
        t = tp.Tape()
        a = t.leaf(np.array([2.0]))
        loss = tp.sum_all(tp.mul(a, tp.stop_gradient(a)))
        np.testing.assert_allclose(t.backward(loss)[a], [2.0])

    def test_tangential_filter_removes_radial_part(self):
        out = tp.tangential_filter(np.array([[1.0, 1.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0]])

    def test_tangential_filter_requires_unit_rows(self):
        with pytest.raises(ContractError):
            tp.tangential_filter(np.ones((1, 2)), np.array([[2.0, 0.0]]))

    def test_tangential_filter_output_is_orthogonal(self):
        rng = np.random.default_rng(0)
        g = rng.normal(size=(5, 4))
        z = rng.normal(size=(5, 4))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        out = tp.tangential_filter(g, z)
        np.testing.assert_allclose((out * z).sum(axis=1), np.zeros(5), atol=1e-12)

    def test_tangent_gate_is_identity_forward(self):
        x = np.array([[3.0, 4.0]])
        out = tp.tangent_gate(tp.constant(x))
        np.testing.assert_array_equal(out.data, x)

    def test_tangent_gate_backward_is_tangential(self):
        t = tp.Tape()
        x = np.array([[0.6, 0.8], [1.0, 0.0]])
        a = t.leaf(x)
        gated = tp.tangent_gate(a)
        loss = tp.sum_all(tp.mul(gated, tp.constant(np.array([[1.0, 1.0], [1.0, 1.0]]))))
        g = t.backward(loss)[a]
        np.testing.assert_allclose((g * x).sum(axis=1), np.zeros(2), atol=1e-12)

    def test_tangent_gate_passes_zero_rows_through(self):
        t = tp.Tape()
        a = t.leaf(np.zeros((1, 3)))
        loss = tp.sum_all(tp.tangent_gate(a))
        np.testing.assert_array_equal(t.backward(loss)[a], np.ones((1, 3)))


# ---------------------------------------------------------------------------
# finite-difference oracles


class TestFiniteDifferenceGradients:
    def check(self, build, arrays_in, rtol=1e-4):
        def value(xs):
            t = tp.Tape()
            leaves = [t.leaf(x) for x in xs]
            return build(t, leaves).item()

        t = tp.Tape()
        leaves = [t.leaf(x) for x in arrays_in]
        grads = t.backward(build(t, leaves))
        numeric = fd_scalar(value, arrays_in)
        for leaf, num in zip(leaves, numeric):
            assert_grad_close(grads[leaf], num, rtol=rtol)

    def test_elementwise_chain(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0
        self.check(
            lambda t, xs: tp.sum_all(tp.div(tp.mul(xs[0], xs[0]), xs[1])), [a, b]
        )

    def test_matmul_transpose_chain(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        self.check(
            lambda t, xs: tp.sum_all(tp.matmul(xs[0], xs[1])), [a, b]
        )
        self.check(
            lambda t, xs: tp.sum_all(tp.matmul(tp.transpose(xs[1]), tp.transpose(xs[0]))),
            [a, b],
        )

    def test_exp_log_chain(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(0.5, 2.0, size=(2, 3))
        self.check(lambda t, xs: tp.sum_all(tp.log(tp.exp(xs[0]))), [a])
        self.check(lambda t, xs: tp.sum_all(tp.exp(tp.scale(xs[0], 0.5))), [a])

    def test_normalize_and_distances(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 4)) + 0.5
        b = rng.normal(size=(3, 4)) - 0.5
        self.check(
            lambda t, xs: tp.batch_mean(
                tp.squared_distance(tp.l2_normalize(xs[0]), tp.l2_normalize(xs[1]))
            ),
            [a, b],
        )

    def test_row_ops(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(3, 4))
        s = rng.normal(size=3)
        self.check(lambda t, xs: tp.batch_mean(tp.row_dot(xs[0], xs[0])), [a])
        self.check(
            lambda t, xs: tp.sum_all(tp.scale_rows(xs[0], xs[1])), [a, s]
        )
        self.check(lambda t, xs: tp.sum_all(tp.row_add(xs[0], xs[1])), [a, s])

    def test_row_slices_split_and_recombine(self):
        # Two slices of one matrix feed a nonlinear loss, as the two views of
        # a stacked batch do; a slice that skips rows leaves them zero.
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 3))
        self.check(
            lambda t, xs: tp.batch_mean(
                tp.squared_distance(
                    tp.l2_normalize(tp.row_slice(xs[0], 0, 3)),
                    tp.row_slice(xs[0], 3, 6),
                )
            ),
            [a],
        )
        self.check(lambda t, xs: tp.sum_all(tp.exp(tp.row_slice(xs[0], 1, 4))), [a])

    def test_matmul_with_bias(self):
        rng = np.random.default_rng(10)
        a, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=2)
        self.check(lambda t, xs: tp.sum_all(tp.relu(tp.matmul(*xs))), [a, w, b])

    def test_bias_broadcast_add(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=3)
        self.check(lambda t, xs: tp.sum_all(tp.relu(tp.add(xs[0], xs[1]))), [a, b])

    def test_softmax_cross_entropy_gradient(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(size=(4, 3))
        labels = np.array([0, 2, 1, 1])
        self.check(
            lambda t, xs: tp.softmax_cross_entropy(xs[0], labels), [logits]
        )

    def test_normalize_gradient_is_orthogonal_to_input(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(3, 5)) + 0.2
        t = tp.Tape()
        a = t.leaf(x)
        v = tp.constant(rng.normal(size=(3, 5)))
        loss = tp.sum_all(tp.mul(tp.l2_normalize(a), v))
        g = t.backward(loss)[a]
        np.testing.assert_allclose((g * x).sum(axis=1), np.zeros(3), atol=1e-10)


# ---------------------------------------------------------------------------
# ops on constants


def op_cases(n: int, d: int, k: int, seed: int) -> dict:
    """name -> (op over tensors, its operand arrays), for every op, at n rows,
    d columns and k outputs or classes."""
    rng = np.random.default_rng(seed)
    x, y, v = rng.normal(size=(n, d)), rng.normal(size=(n, d)), rng.normal(size=n)
    w, logits = rng.normal(size=(d, k)), rng.normal(size=(n, k))
    labels = rng.integers(0, k, size=n)
    return {
        "add": (tp.add, [x, y]),
        "add (bias)": (tp.add, [x, rng.normal(size=d)]),
        "add (0-d)": (tp.add, [np.array(v[0]), np.array(x[0, 0])]),
        "sub": (tp.sub, [x, y]),
        "mul": (tp.mul, [x, y]),
        "div": (tp.div, [x, np.abs(y) + 0.5]),
        "neg": (tp.neg, [x]),
        "scale": (lambda a: tp.scale(a, 1.7), [x]),
        "scale (0-d)": (lambda a: tp.scale(a, 1.7), [np.array(v[0])]),
        "add_scalar": (lambda a: tp.add_scalar(a, -0.3), [x]),
        "matmul": (tp.matmul, [x, w]),
        "matmul (bias)": (tp.matmul, [x, w, rng.normal(size=k)]),
        "row_slice": (lambda a: tp.row_slice(a, n // 2, n), [x]),
        "transpose": (tp.transpose, [x]),
        "relu": (tp.relu, [x]),
        "exp": (tp.exp, [x]),
        "log": (tp.log, [np.abs(x) + 0.1]),
        "sum_all": (tp.sum_all, [x]),
        "batch_mean": (tp.batch_mean, [v]),
        "squared_distance": (tp.squared_distance, [x, y]),
        "row_dot": (tp.row_dot, [x, y]),
        "scale_rows": (tp.scale_rows, [x, v]),
        "row_add": (tp.row_add, [x, v]),
        "l2_normalize": (tp.l2_normalize, [x]),
        "stop_gradient": (tp.stop_gradient, [x]),
        "tangent_gate": (tp.tangent_gate, [x]),
        "softmax_cross_entropy": (lambda a: tp.softmax_cross_entropy(a, labels), [logits]),
    }


OPS = list(op_cases(1, 1, 1, 0))
sizes = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


class TestConstantFastPath:
    @pytest.mark.parametrize("name", OPS)
    @given(n=sizes, d=sizes, k=sizes, seed=seeds)
    def test_constants_give_the_bits_of_tracked_operands(self, name, n, d, k, seed):
        op, operands = op_cases(n, d, k, seed)[name]
        t = tp.Tape()
        tracked = op(*[t.leaf(x) for x in operands])
        const = op(*[tp.constant(x) for x in operands])
        assert tracked.node is not None and const.node is None
        assert const.shape == tracked.shape
        assert const.data.tobytes() == tracked.data.tobytes()

    @pytest.mark.parametrize("name", OPS)
    @given(n=sizes, d=sizes, k=sizes, seed=seeds)
    def test_every_result_is_a_float64_array(self, name, n, d, k, seed):
        op, operands = op_cases(n, d, k, seed)[name]
        t = tp.Tape()
        for out in (op(*[tp.constant(x) for x in operands]), op(*[t.leaf(x) for x in operands])):
            assert type(out.data) is np.ndarray and out.data.dtype == np.float64
            if name in ("batch_mean", "sum_all", "softmax_cross_entropy"):
                assert out.ndim == 0

    @pytest.mark.parametrize("name", OPS)
    def test_constants_carrying_a_tape_record_nothing(self, name):
        op, operands = op_cases(4, 3, 2, 0)[name]
        t = tp.Tape(tp.Workspace())
        out = op(*[tp.Tensor(x, t) for x in operands])
        assert out.node is None
        # Only these pass their tape on, so a constant chain of them stays
        # on its workspace.
        carries = name.split(" ")[0] in ("matmul", "relu", "l2_normalize")
        assert out.tape is (t if carries else None)
        assert t.leaf(np.zeros(1)).node == 0

    def test_as_tensor_wraps_a_float64_array_as_it_is(self):
        x = np.arange(6.0).reshape(2, 3)
        assert tp.as_tensor(x).data is x

    @pytest.mark.parametrize("x", [np.arange(3), np.arange(3, dtype=np.float32), [0, 1, 2]],
                             ids=["int", "float32", "list"])
    def test_as_tensor_coerces_anything_else(self, x):
        data = tp.as_tensor(x).data
        assert type(data) is np.ndarray and data.dtype == np.float64
        np.testing.assert_array_equal(data, [0.0, 1.0, 2.0])

    @pytest.mark.parametrize("call, error", [
        (lambda: tp.add(np.ones((2, 3)), np.ones((3, 2))), ShapeError),
        (lambda: tp.sub(np.ones(2), np.ones(3)), ShapeError),
        (lambda: tp.mul(np.ones(2), np.ones(3)), ShapeError),
        (lambda: tp.div(np.ones(2), np.ones(3)), ShapeError),
        (lambda: tp.matmul(np.ones((2, 3)), np.ones((2, 3))), ShapeError),
        (lambda: tp.matmul(np.ones(3), np.ones((3, 2))), ShapeError),
        (lambda: tp.matmul(np.ones((2, 3)), np.ones((3, 2)), np.ones(3)), ShapeError),
        (lambda: tp.row_slice(np.ones((2, 3)), 1, 3), ShapeError),
        (lambda: tp.transpose(np.ones(3)), ShapeError),
        (lambda: tp.batch_mean(np.ones(())), ShapeError),
        (lambda: tp.batch_mean(np.ones(0)), EmptyBatchError),
        (lambda: tp.squared_distance(np.ones((2, 3)), np.ones((2, 2))), ShapeError),
        (lambda: tp.row_dot(np.ones(3), np.ones(3)), ShapeError),
        (lambda: tp.scale_rows(np.ones((2, 3)), np.ones(3)), ShapeError),
        (lambda: tp.row_add(np.ones((2, 3)), np.ones(3)), ShapeError),
        (lambda: tp.l2_normalize(np.ones(3)), ShapeError),
        (lambda: tp.l2_normalize(np.array([[1.0, 0.0], [0.0, 0.0]])),
         DegenerateRepresentationError),
        (lambda: tp.tangent_gate(np.ones(3)), ShapeError),
        (lambda: tp.log(np.array([1.0, 0.0])), DomainError),
        (lambda: tp.softmax_cross_entropy(np.ones((2, 3)), np.array([0, 3])), DomainError),
        (lambda: tp.softmax_cross_entropy(np.ones((2, 3)), np.array([0])), ShapeError),
    ])
    def test_errors_are_raised_on_constants(self, call, error):
        with pytest.raises(error):
            call()


# ---------------------------------------------------------------------------
# stacks of constants


class TestStacks:
    """A constant stack (K, ...) gives each slice the bits of its own 2-D
    (1-D) call; a tracked operand never stacks."""

    K, N, D, M = 5, 6, 4, 3

    def arrays(self, seed=0):
        rng = np.random.default_rng(seed)
        k, n, d, m = self.K, self.N, self.D, self.M
        return (rng.normal(size=(k, n, d)), rng.normal(size=(n, d)), rng.normal(size=(k, d, m)),
                rng.normal(size=(k, m)), rng.normal(size=(k, n)))

    @staticmethod
    def assert_slices(stacked, each):
        for i, want in enumerate(each):
            assert stacked.data[i].tobytes() == want.data.tobytes()

    def test_matmul_with_a_shared_or_a_stacked_left_operand(self):
        x, shared, w, b, _ = self.arrays()
        for left in (x, shared):
            rows = [left[i] if left.ndim == 3 else left for i in range(self.K)]
            self.assert_slices(tp.stacked_matmul(left, w),
                               [tp.matmul(r, w[i]) for i, r in enumerate(rows)])
            self.assert_slices(tp.stacked_matmul(left, w, b),
                               [tp.matmul(r, w[i], b[i]) for i, r in enumerate(rows)])
        with pytest.raises(ShapeError):
            tp.matmul(x, w)  # matmul itself stays 2-D

    def test_a_stacked_bias_is_one_row_per_slice_even_with_as_many_rows_as_slices(self):
        # With K == n a (K, m) bias would also broadcast over the rows.
        rng = np.random.default_rng(1)
        x, w, b = rng.normal(size=(4, 4, 3)), rng.normal(size=(4, 3, 2)), rng.normal(size=(4, 2))
        self.assert_slices(tp.stacked_matmul(x, w, b),
                           [tp.matmul(x[i], w[i], b[i]) for i in range(4)])

    def test_rowwise_ops_and_reductions(self):
        x, _, _, _, v = self.arrays(2)
        y = self.arrays(3)[0]
        k = self.K
        self.assert_slices(tp.l2_normalize(x), [tp.l2_normalize(x[i]) for i in range(k)])
        self.assert_slices(tp.squared_distance(x, y),
                           [tp.squared_distance(x[i], y[i]) for i in range(k)])
        self.assert_slices(tp.batch_mean(v), [tp.batch_mean(v[i]) for i in range(k)])
        self.assert_slices(tp.row_slice(x, 1, 4), [tp.row_slice(x[i], 1, 4) for i in range(k)])
        self.assert_slices(tp.relu(x), [tp.relu(x[i]) for i in range(k)])

    def test_a_bias_must_match_the_stack(self):
        x, _, w, b, _ = self.arrays()
        for bad in (b[0], b[:2], b[:, :2]):
            with pytest.raises(ShapeError):
                tp.stacked_matmul(x, w, bad)

    def test_a_degenerate_row_anywhere_in_a_stack_raises(self):
        x = self.arrays()[0]
        x[3, 2] = 0.0
        with pytest.raises(DegenerateRepresentationError, match="row 20 "):
            tp.l2_normalize(x)

    def test_tracked_operands_do_not_stack(self):
        x, shared, w, b, v = self.arrays()
        tape = tp.Tape()
        calls = [
            lambda: tp.stacked_matmul(tape.leaf(x), w),
            lambda: tp.stacked_matmul(tape.leaf(shared), w),
            lambda: tp.stacked_matmul(x, tape.leaf(w)),
            lambda: tp.stacked_matmul(x, w, tape.leaf(b)),
            lambda: tp.l2_normalize(tape.leaf(x)),
            lambda: tp.squared_distance(tape.leaf(x), x),
            lambda: tp.squared_distance(x, tape.leaf(x)),
            lambda: tp.batch_mean(tape.leaf(v)),
            lambda: tp.row_slice(tape.leaf(x), 0, 2),
        ]
        for call in calls:
            with pytest.raises(ShapeError):
                call()
        assert not tape._records


# ---------------------------------------------------------------------------
# property-based checks


class TestProperties:
    @given(mat(3, 4), mat(3, 4))
    def test_add_commutes(self, a, b):
        np.testing.assert_allclose(
            tp.add(tp.constant(a), tp.constant(b)).data,
            tp.add(tp.constant(b), tp.constant(a)).data,
        )

    @given(mat(3, 4))
    def test_double_negation_is_identity(self, a):
        np.testing.assert_array_equal(tp.neg(tp.neg(tp.constant(a))).data, a)

    @given(mat(2, 3), st.floats(min_value=-5, max_value=5, allow_nan=False))
    def test_scale_matches_mul_by_scalar(self, a, c):
        np.testing.assert_allclose(
            tp.scale(tp.constant(a), c).data, a * c, atol=1e-12
        )

    @given(mat(3, 3, min_value=0.1, max_value=5.0))
    def test_normalized_rows_are_unit(self, a):
        out = tp.l2_normalize(tp.constant(a)).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=1), np.ones(3), atol=1e-12)

    @given(mat(2, 5), mat(2, 5))
    def test_squared_distance_is_symmetric(self, a, b):
        d1 = tp.squared_distance(tp.constant(a), tp.constant(b)).data
        d2 = tp.squared_distance(tp.constant(b), tp.constant(a)).data
        np.testing.assert_allclose(d1, d2)

    @given(mat(3, 4))
    def test_sum_gradient_is_ones_everywhere(self, a):
        t = tp.Tape()
        leaf = t.leaf(a)
        g = t.backward(tp.sum_all(leaf))
        np.testing.assert_array_equal(g[leaf], np.ones_like(a))
