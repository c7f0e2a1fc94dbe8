"""Loss values against closed forms, metric identities, AUC pairwise and rank oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import rankdata

from causalseg import losses as L
from causalseg import tensor as T
from causalseg import train
from causalseg.config import TrainConfig
from causalseg.model import ForwardResult


def brute_auc(scores, labels):
    """All-pairs Mann-Whitney count: ties score one half."""
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (pos.size * neg.size)


class TestBce:
    def test_matching_prediction_tiny(self):
        y = np.array([0.0, 1.0, 1.0, 0.0])
        assert L.bce_loss(T.Tensor(y.copy()), y).item() <= 1e-6

    def test_half_prediction_is_ln2(self):
        assert abs(L.bce_loss(T.Tensor(np.array([0.5])), np.array([1.0])).item()
                   - math.log(2.0)) < 1e-12

    def test_half_prediction_ignores_truth(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            y = (rng.random(16) < 0.5).astype(np.float64)
            got = L.bce_loss(T.Tensor(np.full(16, 0.5)), y).item()
            assert abs(got - math.log(2.0)) < 1e-12

    def test_confident_wrong_prediction_clamped(self):
        got = L.bce_loss(T.Tensor(np.array([0.0])), np.array([1.0])).item()
        assert abs(got - (-math.log(L.PROB_EPS))) < 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            L.bce_loss(T.Tensor(np.zeros(3)), np.zeros(4))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        y = (rng.random((6, 6)) < 0.5).astype(np.float64)
        pred = T.Tensor(rng.uniform(0.2, 0.8, size=(6, 6)), requires_grad=True)
        assert T.finite_diff_check(lambda p: L.bce_loss(p[0], y), [pred]) < 1e-6


class TestDice:
    # dice_loss takes a batch: every case is a batch of one
    def test_exact_match_zero(self):
        y = np.array([[[1.0, 0.0], [1.0, 1.0]]])
        assert L.dice_loss(T.Tensor(y.copy()), y).item() <= 1e-6

    def test_disjoint_is_one(self):
        y = np.array([[[1.0, 1.0, 0.0, 0.0]]])
        p = np.array([[[0.0, 0.0, 1.0, 1.0]]])
        assert abs(L.dice_loss(T.Tensor(p), y).item() - 1.0) <= 1e-6

    def test_half_overlap(self):
        y = np.array([[[1.0, 1.0, 0.0, 0.0]]])
        p = np.array([[[1.0, 0.0, 1.0, 0.0]]])
        assert abs(L.dice_loss(T.Tensor(p), y).item() - 0.5) < 1e-6

    def test_empty_vs_empty_zero_loss(self):
        z = np.zeros((1, 2, 4))
        assert L.dice_loss(T.Tensor(z.copy()), z).item() == 0.0

    @given(hnp.arrays(np.float64, (1, 3, 4), elements=st.floats(0.0, 1.0)),
           hnp.arrays(np.int8, (1, 3, 4), elements=st.integers(0, 1)))
    @settings(max_examples=50, deadline=None)
    def test_bounded(self, pred, truth):
        val = L.dice_loss(T.Tensor(pred), truth.astype(np.float64)).item()
        assert -1e-9 <= val <= 1.0 + 1e-9

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        y = (rng.random((1, 6, 6)) < 0.5).astype(np.float64)
        pred = T.Tensor(rng.uniform(0.2, 0.8, size=(1, 6, 6)), requires_grad=True)
        assert T.finite_diff_check(lambda p: L.dice_loss(p[0], y), [pred]) < 1e-6

    @pytest.mark.parametrize("shape", [(4,), (2, 4)])
    def test_unbatched_rejected(self, shape):
        with pytest.raises(T.ShapeError, match="batch"):
            L.dice_loss(T.Tensor(np.ones(shape)), np.ones(shape))


class TestTotalLoss:
    """train.compute_losses builds the objective through the train module's
    bindings; the stubs pin each part to a chosen value."""

    MASKS = np.zeros((1, 1, 4, 4))

    def losses(self, monkeypatch, bce, dice, kl=None, usd=None):
        def scalar(v):
            return T.Tensor(np.asarray(v, dtype=np.float64))
        monkeypatch.setattr(train, "bce_loss", lambda pred, truth: scalar(bce))
        monkeypatch.setattr(train, "dice_loss", lambda pred, truth: scalar(dice))
        monkeypatch.setattr(train, "kl_loss", lambda prior, posterior: scalar(kl))
        monkeypatch.setattr(train, "usd_batch", lambda pred, masks, width, band: scalar(usd))
        result = ForwardResult(logits=None, pred=T.Tensor(np.full((1, 1, 4, 4), 0.5)),
                               prior=None, posterior=None if kl is None else object(),
                               latent=None)
        cfg = TrainConfig(use_gsm=usd is not None, n_samples=2, size=16, k=4)
        return train.compute_losses(result, self.MASKS, cfg)

    def test_composition(self, monkeypatch):
        parts = self.losses(monkeypatch, 0.1, 0.2, kl=0.3, usd=0.4)
        assert list(parts) == ["bce", "dice", "kl", "usd", "total"]
        assert parts["total"].item() == ((0.4 + 0.3) + 0.1) + 0.2

    def test_all_zero(self, monkeypatch):
        parts = self.losses(monkeypatch, 0.0, 0.0, kl=0.0, usd=0.0)
        assert parts["total"].item() == 0.0

    def test_missing_parts_are_left_out(self, monkeypatch):
        parts = self.losses(monkeypatch, 0.25, 0.5)
        assert list(parts) == ["bce", "dice", "total"]
        assert parts["total"].item() == 0.75

    def test_nonfinite_part_named(self, monkeypatch):
        with pytest.raises(T.NonFiniteError, match=r"^loss part 'usd' is non-finite$"):
            self.losses(monkeypatch, 0.1, 0.2, kl=0.3, usd=np.nan)

    def test_gradient_is_sum_of_part_gradients(self):
        rng = np.random.default_rng(3)
        y = (rng.random((1, 1, 4, 4)) < 0.5).astype(np.float64)
        base = rng.uniform(0.2, 0.8, size=(1, 1, 4, 4))
        cfg = TrainConfig(use_gsm=False, n_samples=2, size=16, k=4)

        pred = T.Tensor(base.copy(), requires_grad=True)
        result = ForwardResult(logits=None, pred=pred, prior=None, posterior=None, latent=None)
        T.backward(train.compute_losses(result, y, cfg)["total"])

        pred_b = T.Tensor(base.copy(), requires_grad=True)
        T.backward(L.bce_loss(pred_b, y))
        pred_d = T.Tensor(base.copy(), requires_grad=True)
        T.backward(L.dice_loss(pred_d, y))
        np.testing.assert_allclose(pred.grad, pred_b.grad + pred_d.grad, atol=1e-12)


def one(x):
    """A flat pixel vector as a batch of one image."""
    return np.asarray(x)[None, None]


def reference_metrics(pred, truth, threshold=0.5):
    """Single-image metrics as they were first written: Python-int counts and
    the average-rank AUC of ``rankdata``."""
    hard = pred >= threshold
    t = truth > 0.5
    tp, fp = int(np.sum(hard & t)), int(np.sum(hard & ~t))
    fn = int(np.sum(~hard & t))
    dice = 2.0 * tp / (2.0 * tp + fp + fn) if (2 * tp + fp + fn) else 1.0
    iou = tp / (tp + fp + fn) if (tp + fp + fn) else 1.0
    fdr = fp / (fp + tp) if (fp + tp) else 0.0
    scores = np.asarray(pred, dtype=np.float64).ravel()
    labels = t.ravel()
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        return L.Metrics(dice=dice, iou=iou, fdr=fdr, auc=0.5, auc_degenerate=True)
    u = rankdata(scores)[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return L.Metrics(dice=dice, iou=iou, fdr=fdr, auc=float(u / (n_pos * n_neg)))


@st.composite
def metric_batches(draw):
    """(N,H,W) scores and 0/1 masks: float32 or float64, negative values,
    optionally quantized to a few levels to force ties, and rows whose mask
    is all positive or all negative."""
    n = draw(st.integers(1, 5))
    shape = (n, draw(st.integers(1, 4)), draw(st.integers(1, 5)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    pred = draw(hnp.arrays(dtype, shape, elements=st.floats(-1.0, 2.0, width=32)))
    levels = draw(st.sampled_from([None, 1, 4]))
    if levels is not None:
        pred = (np.round(pred * levels) / levels).astype(dtype)
    truth = draw(hnp.arrays(np.int8, shape, elements=st.integers(0, 1))).astype(np.float64)
    for i, kind in enumerate(draw(st.lists(st.sampled_from(["mixed", "all-pos", "all-neg"]),
                                           min_size=n, max_size=n))):
        if kind != "mixed":
            truth[i] = 1.0 if kind == "all-pos" else 0.0
    return pred, truth


class TestMetrics:
    # metrics take a batch: the hand cases are batches of one
    def test_hand_counts(self):
        pred = np.array([[[0.9, 0.5], [0.4, 0.1]]])
        truth = np.array([[[1.0, 0.0], [1.0, 0.0]]])
        c = L.confusion_counts(pred, truth)
        # 0.5 thresholds as positive: TP {0.9}, FP {0.5}, FN {0.4}, TN {0.1}
        assert (c.tp.tolist(), c.fp.tolist(), c.fn.tolist(), c.tn.tolist()) == ([1], [1], [1], [1])
        [m] = L.metrics(pred, truth)
        assert abs(m.dice - 0.5) < 1e-12
        assert abs(m.iou - 1 / 3) < 1e-12
        assert abs(m.fdr - 0.5) < 1e-12

    def test_perfect_prediction(self):
        truth = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        [m] = L.metrics(truth.copy(), truth)
        assert m.dice == 1.0 and m.iou == 1.0 and m.fdr == 0.0 and m.auc == 1.0
        assert not m.auc_degenerate

    def test_two_pixel_example(self):
        [m] = L.metrics(one([0.9, 0.1]), one([1.0, 0.0]))
        assert m.auc == 1.0 and m.fdr == 0.0

    def test_constant_prediction_ties(self):
        truth = one([1.0, 0.0, 1.0, 0.0])
        [m] = L.metrics(np.full(truth.shape, 0.5), truth)
        assert abs(m.auc - 0.5) < 1e-12

    def test_degenerate_truth_flagged(self):
        [m] = L.metrics(one([0.9, 0.1]), one([0.0, 0.0]))
        assert m.auc == 0.5 and m.auc_degenerate

    def test_empty_vs_empty(self):
        [m] = L.metrics(one(np.zeros(9)), one(np.zeros(9)))
        assert m.dice == 1.0 and m.iou == 1.0 and m.fdr == 0.0

    def test_fdr_zero_when_nothing_predicted(self):
        [m] = L.metrics(one(np.zeros(4)), one([1.0, 0.0, 1.0, 0.0]))
        assert m.fdr == 0.0

    @given(hnp.arrays(np.float64, (1, 4, 6), elements=st.floats(0.0, 1.0)),
           hnp.arrays(np.int8, (1, 4, 6), elements=st.integers(0, 1)))
    @settings(max_examples=100, deadline=None)
    def test_dice_iou_identity(self, pred, truth):
        [m] = L.metrics(pred, truth.astype(np.float64))
        assert abs(m.dice - 2.0 * m.iou / (1.0 + m.iou)) < 1e-9

    def test_auc_matches_pairwise_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            # quantized scores force plenty of ties
            scores = rng.integers(0, 5, size=30) / 4.0
            labels = rng.random(30) < 0.5
            if labels.all() or not labels.any():
                continue
            got, degenerate = L.auc_score(one(scores), one(labels.astype(np.float64)))
            assert not degenerate[0]
            assert abs(got[0] - brute_auc(scores, labels)) < 1e-12

    def test_auc_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(5)
        scores = rng.random(40)
        labels = one((rng.random(40) < 0.4).astype(np.float64))
        base, _ = L.auc_score(one(scores), labels)
        warped, _ = L.auc_score(one(np.exp(3.0 * scores) + 7.0), labels)
        assert abs(base[0] - warped[0]) < 1e-12

    def test_ranges(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            pred = rng.random((1, 4, 4))
            truth = (rng.random((1, 4, 4)) < 0.5).astype(np.float64)
            [m] = L.metrics(pred, truth)
            for value in (m.dice, m.iou, m.fdr, m.auc):
                assert 0.0 <= value <= 1.0

    @given(metric_batches())
    @settings(max_examples=300, deadline=None)
    def test_batch_equals_per_image_reference(self, batch):
        pred, truth = batch
        got = L.metrics(pred, truth)
        assert len(got) == len(pred)
        for m, p, t in zip(got, pred, truth):
            assert m == reference_metrics(p, t)  # every field, to the last bit
            labels = t.ravel() > 0.5
            if not m.auc_degenerate:
                assert abs(m.auc - brute_auc(p.ravel().astype(np.float64), labels)) < 1e-12

    def test_threshold_moves_the_hard_prediction(self):
        pred = np.array([[[0.2, 0.6]], [[0.7, 0.1]]])
        truth = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
        assert [m.dice for m in L.metrics(pred, truth)] == [1.0, 1.0]
        assert [m.dice for m in L.metrics(pred, truth, threshold=0.65)] == [0.0, 1.0]

    @pytest.mark.parametrize("shape", [(4,), (2, 4)])
    def test_unbatched_rejected(self, shape):
        with pytest.raises(T.ShapeError, match="batch"):
            L.metrics(np.ones(shape), np.ones(shape))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(T.ShapeError, match="truth"):
            L.metrics(np.ones((2, 3, 3)), np.ones((1, 3, 3)))


class TestEntropyMap:
    def test_half_is_one_bit(self):
        np.testing.assert_array_equal(L.entropy_map(np.full((3, 3), 0.5)), np.ones((3, 3)))

    def test_binary_is_zero(self):
        pred = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(L.entropy_map(pred), np.zeros((2, 2)))

    def test_quarter_closed_form(self):
        expected = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
        assert abs(L.entropy_map(np.array([0.25]))[0] - expected) < 1e-12
        assert abs(L.entropy_map(np.array([0.25]))[0] - 0.811278) < 1e-6

    @given(hnp.arrays(np.float64, 8, elements=st.floats(0.0, 1.0)))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, pred):
        ent = L.entropy_map(pred)
        np.testing.assert_allclose(ent, L.entropy_map(1.0 - pred), atol=1e-12)
        assert np.all(ent >= 0.0) and np.all(ent <= 1.0 + 1e-12)
