"""Discrete causal model: enumeration oracles, adjustment identities, gaps."""

import numpy as np
import pytest

from causalseg import scm as S

TOL = 1e-12


def brute_force_conditional(model, x, y):
    """P(Y=y | X=x) by summing the full joint table, no Bayes shortcut."""
    num = 0.0
    den = 0.0
    for c in range(model.n_c):
        p_cx = model.p_c[c] * model.p_x_given_c[c, x]
        den += p_cx
        num += p_cx * model.p_y_given_xc[x, c, y]
    return num / den


class TestWorkedExample:
    def test_adjusted_value(self):
        model = S.worked_example()
        assert abs(S.backdoor_adjust(model, 1)[1] - 0.705) < TOL

    def test_observational_value(self):
        model = S.worked_example()
        expected = 0.3405 / 0.41  # joint enumeration over the 8 states
        assert abs(S.observational(model, 1)[1] - expected) < TOL

    def test_bias_gap(self):
        model = S.worked_example()
        gap = S.observational(model, 1)[1] - S.backdoor_adjust(model, 1)[1]
        assert abs(gap - 0.1254878048780488) < 1e-9

    def test_enumeration_agrees(self):
        model = S.worked_example()
        for x in (0, 1):
            np.testing.assert_allclose(
                S.intervene_enumerate(model, x), S.backdoor_adjust(model, x), atol=TOL)

    def test_approximation_gap_value(self):
        # E[C] = 0.3 rounds to c* = 0: approx (0.4, 0.6) vs exact (0.295, 0.705)
        model = S.worked_example()
        assert abs(S.approximation_gap(model, 1) - 0.105) < TOL

    def test_observational_matches_joint_table(self):
        model = S.worked_example()
        for x in (0, 1):
            for y in (0, 1):
                assert abs(S.observational(model, x)[y]
                           - brute_force_conditional(model, x, y)) < TOL


class TestAdjustmentIdentities:
    def test_adjust_equals_surgery_on_100_random_scms(self):
        rng = np.random.default_rng(20240817)
        for trial in range(100):
            sizes = rng.integers(2, 5, size=3)
            model = S.random_scm(rng, *[int(s) for s in sizes])
            for x in range(model.n_x):
                np.testing.assert_allclose(
                    S.intervene_enumerate(model, x), S.backdoor_adjust(model, x), atol=TOL)

    def test_no_confounding_means_no_bias(self):
        # X independent of C: every arm of p_x_given_c identical
        rng = np.random.default_rng(7)
        for _ in range(20):
            base = S.random_scm(rng, 3, 2, 3)
            row = base.p_x_given_c[0]
            model = S.DiscreteSCM(base.p_c, np.tile(row, (3, 1)), base.p_y_given_xc)
            for x in range(model.n_x):
                np.testing.assert_allclose(
                    S.observational(model, x), S.backdoor_adjust(model, x), atol=TOL)

    def test_outcome_ignoring_confounder_means_no_bias(self):
        # Y depends only on X: backdoor collapses to P(Y|x)
        rng = np.random.default_rng(11)
        base = S.random_scm(rng, 3, 2, 4)
        p_y = np.tile(base.p_y_given_xc[:, :1, :], (1, 3, 1))
        model = S.DiscreteSCM(base.p_c, base.p_x_given_c, p_y)
        for x in range(model.n_x):
            np.testing.assert_allclose(S.observational(model, x), p_y[x, 0], atol=TOL)
            np.testing.assert_allclose(S.backdoor_adjust(model, x), p_y[x, 0], atol=TOL)

    def test_results_are_distributions(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            model = S.random_scm(rng, 4, 3, 4)
            for fn in (S.observational, S.backdoor_adjust, S.intervene_enumerate):
                for x in range(model.n_x):
                    out = fn(model, x)
                    assert abs(out.sum() - 1.0) < TOL and np.all(out >= 0)

    def test_point_mass_confounder(self):
        rng = np.random.default_rng(5)
        base = S.random_scm(rng, 3, 2, 3)
        model = S.DiscreteSCM([0.0, 1.0, 0.0], base.p_x_given_c, base.p_y_given_xc)
        np.testing.assert_allclose(
            S.backdoor_adjust(model, 1), model.p_y_given_xc[1, 1], atol=TOL)


class TestApproximationGap:
    def test_deterministic_confounder_gap_zero(self):
        rng = np.random.default_rng(13)
        base = S.random_scm(rng, 3, 2, 3)
        model = S.DiscreteSCM([0.0, 0.0, 1.0], base.p_x_given_c, base.p_y_given_xc)
        for x in range(model.n_x):
            assert S.approximation_gap(model, x) < TOL

    def test_outcome_independent_of_confounder_gap_zero(self):
        rng = np.random.default_rng(17)
        base = S.random_scm(rng, 3, 2, 3)
        p_y = np.tile(base.p_y_given_xc[:, :1, :], (1, 3, 1))
        model = S.DiscreteSCM(base.p_c, base.p_x_given_c, p_y)
        for x in range(model.n_x):
            assert S.approximation_gap(model, x) < TOL

    def test_gap_nonnegative(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            model = S.random_scm(rng, 3, 2, 3)
            assert S.approximation_gap(model, 0) >= 0.0

    def test_rounding_half_away_from_zero(self):
        # E[C] = 0.5 must select index 1, not banker's-round to 0
        p_y = np.zeros((1, 2, 2))
        p_y[0, 0] = [1.0, 0.0]
        p_y[0, 1] = [0.0, 1.0]
        model = S.DiscreteSCM([0.5, 0.5], [[1.0], [1.0]], p_y)
        # exact = (0.5, 0.5); approx with c*=1 gives (0, 1) -> TV 0.5
        assert abs(S.approximation_gap(model, 0) - 0.5) < TOL


class TestGapSweep:
    def test_gaps_are_total_variations(self):
        bias, gap = S.gap_sweep(40)
        assert len(bias) == len(gap) >= 80  # every random model has |X| >= 2
        assert all(0.0 <= v <= 1.0 for v in bias + gap)

    def test_skips_x_that_never_occurs(self, monkeypatch):
        # X=1 has probability 0 under every confounder level
        model = S.DiscreteSCM([0.5, 0.5], [[1.0, 0.0], [1.0, 0.0]],
                              [[[0.9, 0.1], [0.2, 0.8]], [[0.5, 0.5], [0.5, 0.5]]])
        monkeypatch.setattr(S, "random_scm", lambda *args: model)
        bias, gap = S.gap_sweep(3)
        assert bias == [S.tv_distance(S.observational(model, 0), S.backdoor_adjust(model, 0))] * 3
        assert gap == [S.approximation_gap(model, 0)] * 3


class TestValidation:
    def test_row_sum_violation(self):
        with pytest.raises(S.SCMError, match="sum"):
            S.DiscreteSCM([0.5, 0.4], [[1.0], [1.0]], [[[1.0], [1.0]]])

    def test_negative_entry(self):
        with pytest.raises(S.SCMError, match="negative"):
            S.DiscreteSCM([1.5, -0.5], [[1.0], [1.0]], [[[1.0], [1.0]]])

    def test_shape_mismatch(self):
        with pytest.raises(S.SCMError, match="row count"):
            S.DiscreteSCM([1.0], [[0.5, 0.5], [0.5, 0.5]], np.full((2, 1, 2), 0.5))

    def test_cpt_orientation(self):
        with pytest.raises(S.SCMError, match=r"\(x, c, y\)"):
            S.DiscreteSCM([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], np.full((3, 2, 2), 0.5))

    def test_zero_probability_conditioning(self):
        model = S.DiscreteSCM([1.0], [[1.0, 0.0]], np.full((2, 1, 2), 0.5))
        with pytest.raises(S.SCMError, match="undefined"):
            S.observational(model, 1)
