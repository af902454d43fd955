"""Geometric loss terms and objective assembly."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from raftlab import tape as tp
from raftlab.errors import ConfigError, ContractError, InsufficientBatchError, NearOrthogonalError
from raftlab.losses import (
    COLLAPSE_UNIFORMITY_THRESHOLD,
    LAMBDA_EPS,
    LossConfig,
    OBJECTIVES,
    UNIFORMITY_T,
    align_loss,
    cross_model_loss,
    objective_terms,
    tangential_cross_model,
    uniform_loss,
)

from conftest import random_unit_rows


def units(seed, n, d):
    return random_unit_rows(np.random.default_rng(seed), n, d)


class TestAlign:
    def test_identical_views_have_zero_alignment(self):
        z = units(0, 4, 6)
        assert align_loss(tp.constant(z), tp.constant(z)).item() == pytest.approx(0.0)

    def test_antipodal_views_align_at_four(self):
        z = units(1, 4, 6)
        val = align_loss(tp.constant(z), tp.constant(-z)).item()
        assert val == pytest.approx(4.0)

    def test_align_is_mean_squared_distance(self):
        a, b = units(2, 5, 4), units(3, 5, 4)
        expected = np.mean(np.sum((a - b) ** 2, axis=1))
        assert align_loss(tp.constant(a), tp.constant(b)).item() == pytest.approx(expected)


class TestUniformity:
    def test_identical_rows_score_zero(self):
        z = np.tile(units(4, 1, 6), (3, 1))
        assert uniform_loss(tp.constant(z)).item() == pytest.approx(0.0)

    def test_two_antipodal_rows_reach_lower_corner(self):
        z = units(5, 1, 6)
        val = uniform_loss(tp.constant(np.vstack([z, -z]))).item()
        assert val == pytest.approx(-8.0)

    def test_range_is_bounded(self):
        z = units(6, 10, 5)
        val = uniform_loss(tp.constant(z)).item()
        assert -4.0 * UNIFORMITY_T <= val <= 0.0

    def test_single_row_is_rejected(self):
        with pytest.raises(InsufficientBatchError):
            uniform_loss(tp.constant(units(7, 1, 5)))

    def test_matches_direct_pair_formula(self):
        z = units(8, 6, 4)
        t = 2.0
        d2 = ((z[:, None, :] - z[None, :, :]) ** 2).sum(-1)
        mask = ~np.eye(len(z), dtype=bool)
        expected = np.log(np.exp(-t * d2[mask]).mean())
        assert uniform_loss(tp.constant(z)).item() == pytest.approx(expected)

    def test_collapse_threshold_constant(self):
        assert COLLAPSE_UNIFORMITY_THRESHOLD == -0.2

    @staticmethod
    def tape_composition(z):
        # The measure as tape ops: D_ij = |z_i|^2 + |z_j|^2 - 2 <z_i, z_j>
        # through transposes and row adds, then the kernel, its off-diagonal
        # sum, its mean and the log.
        z = tp.constant(z)
        n = z.shape[0]
        sq = tp.row_dot(z, z)
        gram = tp.matmul(z, tp.transpose(z))
        d = tp.row_add(tp.transpose(tp.row_add(tp.transpose(tp.scale(gram, -2.0)), sq)), sq)
        kernel = tp.exp(tp.scale(d, -UNIFORMITY_T))
        off_diag = tp.add_scalar(tp.sum_all(kernel), -float(n))
        return tp.log(tp.scale(off_diag, 1.0 / (n * (n - 1)))).item()

    @pytest.mark.parametrize("n,d", [(2, 3), (64, 256), (400, 16), (512, 256)])
    def test_equals_the_tape_composition_bitwise(self, n, d):
        z = units(n + d, n, d)
        assert uniform_loss(tp.constant(z)).item() == self.tape_composition(z)

    def test_peak_memory_is_one_pair_matrix(self):
        n, d = 1024, 64
        z = tp.constant(units(21, n, d))
        uniform_loss(z)
        tracemalloc.start()
        try:
            uniform_loss(z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 8 * n * n + 4 * 8 * n * d

    def test_tracked_tensor_is_refused(self):
        z = tp.Tape().leaf(units(22, 4, 3))
        with pytest.raises(ContractError, match="records nothing"):
            uniform_loss(z)


class TestCrossModel:
    def test_symmetric_in_arguments(self):
        p, z = units(9, 4, 5), units(10, 4, 5)
        assert cross_model_loss(tp.constant(p), tp.constant(z)).item() == pytest.approx(
            cross_model_loss(tp.constant(z), tp.constant(p)).item()
        )

    def test_equals_mean_squared_distance(self):
        p, z = units(11, 4, 5), units(12, 4, 5)
        expected = np.mean(np.sum((p - z) ** 2, axis=1))
        assert cross_model_loss(tp.constant(p), tp.constant(z)).item() == pytest.approx(expected)


def byol_total(p1, p2, z1, z2):
    cfg = LossConfig(objective="byol")
    return objective_terms(cfg, *(tp.constant(a) for a in (p1, p2, z1, z2))).total.item()


class TestByol:
    def test_equals_two_minus_two_cosine_on_unit_rows(self):
        p, z = units(13, 6, 4), units(14, 6, 4)
        expected = np.mean(2.0 - 2.0 * (p * z).sum(axis=1))
        assert byol_total(p, p, z, z) == pytest.approx(expected)

    def test_symmetrized_form_averages_the_two_views(self):
        p1, z2 = units(15, 3, 4), units(16, 3, 4)
        p2, z1 = units(17, 3, 4), units(18, 3, 4)
        # the crossed pairs: online view 1 against target view 2, and
        # online view 2 against target view 1
        one = cross_model_loss(tp.constant(p1), tp.constant(z2)).item()
        two = cross_model_loss(tp.constant(p2), tp.constant(z1)).item()
        assert byol_total(p1, p2, z1, z2) == 0.5 * (one + two)


class TestTangentialTrick:
    def test_matching_arguments_give_zero(self):
        p = units(19, 4, 6)
        val = tangential_cross_model(tp.constant(p), tp.constant(p)).item()
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_gradient_is_orthogonal_to_prediction(self):
        rng = np.random.default_rng(20)
        p = random_unit_rows(rng, 5, 6)
        z = random_unit_rows(rng, 5, 6)
        t = tp.Tape()
        leaf = t.leaf(p)
        loss = tangential_cross_model(leaf, tp.constant(z))
        g = t.backward(loss)[leaf]
        assert np.max(np.abs((g * p).sum(axis=1))) <= 1e-10

    def test_orthogonal_arguments_are_rejected(self):
        p = np.array([[1.0, 0.0]])
        z = np.array([[0.0, 1.0]])
        with pytest.raises(NearOrthogonalError):
            tangential_cross_model(tp.constant(p), tp.constant(z))

    def test_rejection_threshold_constant(self):
        assert LAMBDA_EPS == 1e-6


def make_views(seed, n=6, d=5):
    rng = np.random.default_rng(seed)
    return tuple(tp.constant(random_unit_rows(rng, n, d)) for _ in range(4))


class TestObjectives:
    def test_registry_contents(self):
        assert OBJECTIVES == ("byol", "byol_prime", "raft")

    def test_unknown_objective_rejected(self):
        with pytest.raises(ConfigError):
            LossConfig(objective="simsiam")

    def test_parts_report_plain_align_and_cross(self):
        p1, p2, z1, z2 = make_views(21)
        cfg = LossConfig(objective="byol_prime", alpha=2.0, beta=3.0)
        parts = objective_terms(cfg, p1, p2, z1, z2)
        align = align_loss(p1, p2).item()
        cross = 0.5 * (
            cross_model_loss(p1, z1).item() + cross_model_loss(p2, z2).item()
        )
        assert parts.align.item() == pytest.approx(align)
        assert parts.cross.item() == pytest.approx(cross)
        assert parts.total.item() == pytest.approx(2.0 * align + 3.0 * cross)

    def test_two_term_objective_scales_linearly_in_weights(self):
        p1, p2, z1, z2 = make_views(22)
        base = objective_terms(LossConfig(objective="byol_prime", alpha=1.0, beta=2.0), p1, p2, z1, z2)
        scaled = objective_terms(LossConfig(objective="byol_prime", alpha=3.0, beta=6.0), p1, p2, z1, z2)
        assert scaled.total.item() == pytest.approx(3.0 * base.total.item())

    def test_repulsive_objective_flips_the_cross_sign(self):
        p1, p2, z1, z2 = make_views(23)
        attract = objective_terms(LossConfig(objective="byol_prime", alpha=1.5, beta=2.5), p1, p2, z1, z2)
        repel = objective_terms(LossConfig(objective="raft", alpha=1.5, beta=2.5), p1, p2, z1, z2)
        assert repel.total.item() == pytest.approx(
            attract.total.item() - 2.0 * 2.5 * attract.cross.item()
        )
        assert repel.align.item() == pytest.approx(attract.align.item())
        assert repel.cross.item() == pytest.approx(attract.cross.item())

    def test_repulsive_total_from_parts(self):
        p1, p2, z1, z2 = make_views(24)
        cfg = LossConfig(objective="raft", alpha=1.0, beta=1.0)
        parts = objective_terms(cfg, p1, p2, z1, z2)
        assert parts.total.item() == pytest.approx(parts.align.item() - parts.cross.item())

    def test_crossed_view_objective_uses_opposite_pairing(self):
        p1, p2, z1, z2 = make_views(25)
        cfg = LossConfig(objective="byol", alpha=1.0, beta=1.0)
        parts = objective_terms(cfg, p1, p2, z1, z2)
        expected = 0.5 * (
            cross_model_loss(p1, z2).item() + cross_model_loss(p2, z1).item()
        )
        assert parts.total.item() == pytest.approx(expected)
        diag = 0.5 * (cross_model_loss(p1, z1).item() + cross_model_loss(p2, z2).item())
        assert parts.cross.item() == pytest.approx(diag)

    @given(st.floats(min_value=0.1, max_value=5.0), st.floats(min_value=0.1, max_value=5.0))
    def test_two_term_total_is_weighted_sum_of_parts(self, alpha, beta):
        p1, p2, z1, z2 = make_views(27)
        cfg = LossConfig(objective="byol_prime", alpha=alpha, beta=beta)
        parts = objective_terms(cfg, p1, p2, z1, z2)
        assert parts.total.item() == pytest.approx(alpha * parts.align.item() + beta * parts.cross.item())

