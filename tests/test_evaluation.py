import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from afpm.errors import DataError
from afpm.evaluation import (
    auc_pr, auroc, balanced_accuracy, cohens_kappa, evaluate_arrays,
    compute_metrics, positive_class_index, softmax_scores, subject_groups,
    subject_of, task_metrics,
)
from afpm.model import forward


def pairwise_auroc(scores, labels):
    """O(n^2) oracle: P(random positive outscores random negative), ties 1/2."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    pos = scores[labels]
    neg = scores[~labels]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (pos.size * neg.size)


def sweep_auc_pr(scores, labels):
    """Threshold-sweep oracle: precision/recall recomputed from scratch at
    every distinct score, step integration over recall."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    n_pos = labels.sum()
    thresholds = sorted(set(scores), reverse=True)
    ap = 0.0
    prev_recall = 0.0
    for th in thresholds:
        picked = scores >= th
        tp = int((picked & labels).sum())
        precision = tp / int(picked.sum())
        recall = tp / n_pos
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def loop_auc_pr(scores, labels):
    """The per-group loop ``auc_pr`` replaced, kept as its reference."""
    scores = np.asarray(scores)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]
    ap = 0.0
    tp = 0
    seen = 0
    i = 0
    n = scores.size
    while i < n:
        j = i
        while j + 1 < n and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        group_tp = int(sorted_labels[i:j + 1].sum())
        tp += group_tp
        seen += j - i + 1
        if group_tp:
            ap += tp / seen * (group_tp / n_pos)
        i = j + 1
    return float(ap)


@st.composite
def tied_scores(draw):
    """Scores from a few distinct values, so most trials tie with another."""
    n = draw(st.integers(2, 80))
    values = draw(st.lists(st.floats(-3, 3, width=32), min_size=1, max_size=5))
    scores = np.array(draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)))
    labels = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return scores, labels


class TestTiedRankOracles:
    @settings(max_examples=200, deadline=None)
    @given(case=tied_scores())
    def test_auroc_is_the_pairwise_win_count(self, case):
        scores, labels = case
        assume(labels.any() and not labels.all())
        assert auroc(scores, labels) == pairwise_auroc(scores, labels)

    @settings(max_examples=200, deadline=None)
    @given(case=tied_scores())
    def test_auc_pr_matches_the_group_loop(self, case):
        scores, labels = case
        assume(labels.any())
        assert auc_pr(scores, labels) == pytest.approx(loop_auc_pr(scores, labels),
                                                       rel=0, abs=1e-12)


class TestBalancedAccuracy:
    def test_perfect(self):
        assert balanced_accuracy([0, 1, 1, 0], [0, 1, 1, 0]) == 1.0

    def test_hand_confusion(self):
        # confusion [[45, 5], [10, 40]]
        labels = np.array([0] * 50 + [1] * 50)
        preds = np.array([0] * 45 + [1] * 5 + [0] * 10 + [1] * 40)
        assert balanced_accuracy(preds, labels) == pytest.approx(0.85)

    def test_constant_predictor_two_classes(self):
        labels = np.array([0, 0, 0, 1])
        preds = np.zeros(4, dtype=int)
        assert balanced_accuracy(preds, labels) == pytest.approx(0.5)

    def test_duplicating_one_class_is_invariant(self, rng):
        labels = np.array([0] * 10 + [1] * 30)
        preds = rng.integers(0, 2, size=40)
        base = balanced_accuracy(preds, labels)
        labels2 = np.concatenate([labels, np.zeros(10, dtype=int)])
        preds2 = np.concatenate([preds, preds[:10]])
        assert balanced_accuracy(preds2, labels2) == pytest.approx(base)

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            balanced_accuracy([], [])


class TestAuroc:
    def test_perfect_separation(self):
        assert auroc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0

    def test_all_ties_half(self):
        assert auroc([0.5] * 6, [0, 1, 0, 1, 0, 1]) == 0.5

    def test_hand_example(self):
        assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)

    def test_matches_pairwise_oracle_exactly(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 60))
            scores = np.round(rng.random(n), 1)  # force ties
            labels = rng.integers(0, 2, size=n)
            if labels.min() == labels.max():
                labels[0] = 1 - labels[0]
            assert auroc(scores, labels) == pairwise_auroc(scores, labels)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auroc([0.1, 0.9], [1, 1])


class TestAucPr:
    def test_perfect_ranking(self):
        assert auc_pr([0.9, 0.1], [1, 0]) == 1.0

    def test_reversed_two_point(self):
        assert auc_pr([0.9, 0.1], [0, 1]) == pytest.approx(0.5)

    def test_matches_sweep_oracle(self, rng):
        for _ in range(30):
            n = int(rng.integers(5, 60))
            scores = np.round(rng.random(n), 1)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() == 0:
                labels[0] = 1
            assert auc_pr(scores, labels) == pytest.approx(
                sweep_auc_pr(scores, labels), abs=1e-12)

    def test_random_scores_approach_positive_rate(self, rng):
        n, pi = 20000, 0.3
        labels = (rng.random(n) < pi).astype(int)
        scores = rng.random(n)
        assert auc_pr(scores, labels) == pytest.approx(pi, abs=0.02)

    def test_no_positives_rejected(self):
        with pytest.raises(DataError):
            auc_pr([0.5, 0.6], [0, 0])


class TestCohensKappa:
    def test_perfect_agreement(self):
        assert cohens_kappa([0, 1, 0, 1], [0, 1, 0, 1]) == 1.0

    def test_hand_confusion(self):
        labels = np.array([0] * 50 + [1] * 50)
        preds = np.array([0] * 45 + [1] * 5 + [0] * 10 + [1] * 40)
        assert cohens_kappa(preds, labels) == pytest.approx(0.7)

    def test_independent_predictions_near_zero(self, rng):
        n = 40000
        labels = rng.integers(0, 2, size=n)
        preds = rng.integers(0, 2, size=n)
        assert abs(cohens_kappa(preds, labels)) < 0.02

    def test_degenerate_pe_one_returns_zero(self):
        assert cohens_kappa([1, 1], [1, 1]) == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                    min_size=2, max_size=40))
    def test_symmetric_under_relabeling(self, pairs):
        preds = np.array([p for p, _ in pairs])
        labels = np.array([l for _, l in pairs])
        base = cohens_kappa(preds, labels)
        relabel = {0: 2, 1: 0, 2: 1}
        preds2 = np.array([relabel[p] for p in preds])
        labels2 = np.array([relabel[l] for l in labels])
        assert cohens_kappa(preds2, labels2) == pytest.approx(base, abs=1e-12)


def test_argmax_invariant_to_constant_logit_shift(rng):
    logits = rng.standard_normal((20, 3))
    shifted = logits + rng.standard_normal((20, 1))
    assert np.array_equal(np.argmax(logits, 1), np.argmax(shifted, 1))
    assert np.allclose(softmax_scores(logits + 5.0), softmax_scores(logits))


def test_task_metric_sets():
    assert task_metrics("mi") == ("balanced_accuracy", "auc_pr")
    assert task_metrics("erp") == ("auroc", "auc_pr", "cohens_kappa")


def test_positive_class_index():
    assert positive_class_index(("nontarget", "target"), "erp") == 1
    assert positive_class_index(("Target", "other"), "erp") == 0
    assert positive_class_index(("left", "right"), "mi") == 1


def test_three_class_rank_metrics_score_class_one_against_the_rest(rng):
    """On three MI classes ``auc_pr`` is the AP of class 1's softmax score with
    class 1 positive and classes 0 and 2 negative; ERP without a 'target'
    class scores class 1 the same way."""
    logits, labels = rng.standard_normal((40, 3)), np.arange(40) % 3
    scores, one = softmax_scores(logits)[:, 1], (labels == 1).astype(int)
    assert positive_class_index(("left", "right", "feet"), "mi") == 1
    mi = compute_metrics("mi", logits, labels, 1)
    assert mi["auc_pr"] == auc_pr(scores, one)
    assert mi["balanced_accuracy"] == balanced_accuracy(np.argmax(logits, 1), labels)
    assert positive_class_index(("a", "b", "c"), "erp") == 1
    erp = compute_metrics("erp", logits, labels, 1)
    assert (erp["auroc"], erp["auc_pr"]) == (auroc(scores, one), auc_pr(scores, one))


def test_subject_of_strips_session():
    assert subject_of("set:s03:2") == "set:s03"
    assert subject_of("plain") == "plain"


def test_subject_groups_partition_trials_in_ascending_order():
    doms = ["d:s2:0", "d:s10:1", "d:s2:1", "d:s1:0", "d:s10:0", "d:s2:0"]
    groups = subject_groups(doms)
    assert list(groups) == ["d:s1", "d:s10", "d:s2"]
    assert [g.tolist() for g in groups.values()] == [[3], [1, 4], [0, 2, 5]]
    assert subject_groups(doms).keys() == groups.keys()
    assert sorted(np.concatenate(list(groups.values())).tolist()) == list(range(6))


class TestEvaluateArrays:
    def _model(self):
        from afpm.model import FPEConfig, ModelConfig, TransformerConfig, init_model
        fpe = FPEConfig(embed_dim=3, frame_window=8, frame_stride=8, avg_window=2,
                        avg_shift=1, token_dim=6, mlp_hidden=5)
        t = TransformerConfig(depth=1, heads=1, dim_head=3, dim_mlp=4)
        cfg = ModelConfig(task="mi", template_channels=("C3", "C4"), template_len=32,
                          fpe=fpe, transformer=t, class_names=("class_a", "class_b"))
        return init_model(cfg, seed=0)

    def test_random_model_near_chance_on_balanced_set(self, rng):
        model = self._model()
        x = rng.standard_normal((400, 2, 32)).astype(np.float32)
        y = np.array([i % 2 for i in range(400)])
        doms = [f"d:s{i % 4}:0" for i in range(400)]
        report = evaluate_arrays(model, x, y, doms, "toy")
        assert 0.4 <= report.mean("balanced_accuracy") <= 0.6

    def test_subject_split_deterministic_and_sums_to_pooled(self, rng):
        """Two calls agree, the subjects partition the trials, and the
        per-subject trial and confusion counts add up to the pooled ones."""
        model = self._model()
        x = rng.standard_normal((60, 2, 32)).astype(np.float32)
        y = np.array([i % 2 for i in range(60)])
        doms = [f"d:s{i % 6}:{i % 2}" for i in range(60)]
        r1 = evaluate_arrays(model, x, y, doms, "toy")
        r2 = evaluate_arrays(model, x, y, doms, "toy")
        assert r1.to_dict() == r2.to_dict()
        assert r1.n_subjects == len(r1.subjects) == 6
        assert sum(s["n_trials"] for s in r1.subjects.values()) == r1.n_trials == 60
        logits = forward(x, model)
        pooled = np.zeros((2, 2), dtype=np.int64)
        np.add.at(pooled, (y, np.argmax(logits, axis=1)), 1)
        confusion = sum(np.array(s["confusion"]) for s in r1.subjects.values())
        assert confusion.tolist() == pooled.tolist()
        for m, value in compute_metrics("mi", logits, y, 1).items():
            assert r1.metrics[m] == {"mean": value}

    def test_subject_without_positives_has_null_rank_metrics(self, rng):
        model = self._model()
        x = rng.standard_normal((12, 2, 32)).astype(np.float32)
        y = np.array([0, 1] * 4 + [0] * 4)
        doms = ["d:a:0"] * 8 + ["d:b:0"] * 4
        report = evaluate_arrays(model, x, y, doms, "toy")
        assert report.subjects["d:b"]["metrics"]["auc_pr"] is None
        assert report.subjects["d:a"]["metrics"]["auc_pr"] is not None
        assert report.metrics["auc_pr"]["mean"] == compute_metrics(
            "mi", forward(x, model), y, 1)["auc_pr"]
        line = [row for row in report.table().splitlines() if "d:b (4 trials)" in row]
        assert len(line) == 1 and line[0].endswith("auc_pr n/a"), line

    def test_constant_prediction_flagged(self, rng):
        """Zero head weights give every trial the same logits, so one class."""
        model = self._model()
        x = rng.standard_normal((20, 2, 32)).astype(np.float32)
        y = np.array([i % 2 for i in range(20)])
        doms = [f"d:s{i % 2}:0" for i in range(20)]
        model.params["head.w"] = np.zeros_like(model.params["head.w"])
        report = evaluate_arrays(model, x, y, doms, "toy")
        assert report.constant_prediction is True
        assert "every trial is predicted as the same class" in report.table()

    def test_trained_model_not_flagged_constant(self, rng):
        from afpm.training import TrainConfig, train
        y = np.arange(40) % 2
        x = (0.3 * rng.standard_normal((40, 2, 32))).astype(np.float32)
        x[:, 0, :] += np.where(y == 1, 1.0, -1.0)[:, None] * np.sin(np.arange(32) / 2)
        cfg = TrainConfig(epochs=20, batch_size=8, lr_init=1e-3, lr_max=1e-2)
        model = train(x, y, self._model(), cfg).model
        report = evaluate_arrays(model, x, y, [f"d:s{i % 4}:0" for i in range(40)], "toy")
        assert report.constant_prediction is False
        assert report.mean("balanced_accuracy") > 0.9
        assert "same class" not in report.table()

    def test_oracle_scores_give_perfect_rank_metrics(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, 0, 0])
        assert auroc(scores, labels) == 1.0
        assert auc_pr(scores, labels) == 1.0
