import numpy as np
import pytest

from afpm.alignment import (
    SelectedTrial, align_dataset, align_domain, inv_sqrt_psd, map_to_template,
    mean_covariance, select_channels,
)
from afpm.data_model import EEGTrial, TaskTemplateSpec, load_manifest, task_template
from afpm.errors import DataError, NumericError

from conftest import random_spd, write_toy_dataset

MI = task_template("mi")


def trial_of(data, channels, domain="d0", label=0, rate=256.0):
    return EEGTrial(np.asarray(data, dtype=np.float64), channels, rate, label, domain)


def selected_of(data, domain="d0", label=0):
    data = np.asarray(data, dtype=np.float64)
    sel = tuple((f"C{i}", i) for i in range(data.shape[0]))
    return SelectedTrial(data=data, selected=sel, domain_id=domain, label=label)


class TestSelectChannels:
    def test_intersection_in_template_order(self, rng):
        x = rng.standard_normal((4, 16))
        trial = trial_of(x, ("C3", "CZ", "C4", "F3"))
        sel = select_channels(trial, MI)
        assert [ch for ch, _ in sel.selected] == ["C3", "CZ", "C4"]
        # template order: C3 (idx 6), CZ (idx 8), C4 (idx 10)
        assert [row for _, row in sel.selected] == [6, 8, 10]
        assert np.array_equal(sel.data, x[[0, 1, 2]])

    def test_full_set_permuted_to_template_order(self, rng):
        perm = list(rng.permutation(len(MI.target_channels)))
        channels = tuple(MI.target_channels[i] for i in perm)
        x = rng.standard_normal((17, 8))
        sel = select_channels(trial_of(x, channels), MI)
        assert tuple(ch for ch, _ in sel.selected) == MI.target_channels
        for out_row, (ch, _) in enumerate(sel.selected):
            assert np.array_equal(sel.data[out_row], x[channels.index(ch)])

    def test_original_order_mode(self, rng):
        x = rng.standard_normal((3, 8))
        sel = select_channels(trial_of(x, ("C4", "CZ", "C3")), MI, order="original")
        assert [ch for ch, _ in sel.selected] == ["C4", "CZ", "C3"]

    def test_empty_intersection_rejected(self):
        trial = trial_of(np.zeros((2, 8)), ("O1", "O2"))
        with pytest.raises(DataError, match="no task-relevant channels"):
            select_channels(trial, MI)


class TestMeanCovariance:
    def test_identity_gram(self):
        r = mean_covariance([selected_of(np.eye(2))])
        assert np.allclose(r, np.eye(2))

    def test_hand_computed_two_trials(self):
        r = mean_covariance([selected_of([[1.0, 1.0]]), selected_of([[3.0, 1.0]])])
        assert r.shape == (1, 1)
        assert r[0, 0] == pytest.approx(6.0)

    def test_output_is_psd(self, rng):
        group = [selected_of(rng.standard_normal((4, 3))) for _ in range(5)]
        r = mean_covariance(group)
        evals = np.linalg.eigvalsh(r)
        assert evals.min() >= -1e-10 * np.trace(r)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="mismatch"):
            mean_covariance([selected_of(np.zeros((2, 4))),
                             selected_of(np.zeros((3, 4)))])


class TestInvSqrtPsd:
    def test_identity(self):
        assert np.allclose(inv_sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        out = inv_sqrt_psd(np.diag([4.0, 9.0]))
        assert np.allclose(out, np.diag([0.5, 1.0 / 3.0]))

    def test_defining_identity_random_spd(self, rng):
        a = random_spd(rng, 4)
        b = inv_sqrt_psd(a)
        assert np.linalg.norm(b @ a @ b - np.eye(4), "fro") < 1e-8

    def test_rank_deficient_is_clamped_not_fatal(self):
        a = np.diag([1.0, 0.0])
        out = inv_sqrt_psd(a)
        assert np.all(np.isfinite(out))

    def test_zero_matrix_rejected(self):
        with pytest.raises(NumericError, match="all-zero"):
            inv_sqrt_psd(np.zeros((3, 3)))

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(NumericError, match="symmetric"):
            inv_sqrt_psd(a)


class TestAlignDomain:
    def test_single_trial_whitens_exactly(self, rng):
        x = rng.standard_normal((3, 64))
        aligned, _ = align_domain([selected_of(x)])
        w = aligned[0].data
        assert np.linalg.norm(w @ w.T - np.eye(3), "fro") < 1e-8

    def test_mean_aligned_covariance_is_identity(self, rng):
        group = [selected_of(rng.standard_normal((4, 128))) for _ in range(6)]
        aligned, (r_bar, r_inv_sqrt) = align_domain(group)
        acc = sum(t.data @ t.data.T for t in aligned) / len(aligned)
        assert np.linalg.norm(acc - np.eye(4), "fro") < 1e-8
        assert np.array_equal(r_bar, mean_covariance(group))
        assert np.linalg.norm(r_inv_sqrt @ r_bar @ r_inv_sqrt - np.eye(4), "fro") < 1e-8

    def test_zero_trials_rejected(self):
        with pytest.raises(NumericError):
            align_domain([selected_of(np.zeros((2, 8)))])

    def test_mixed_domains_rejected(self, rng):
        group = [selected_of(rng.standard_normal((2, 8)), domain="a"),
                 selected_of(rng.standard_normal((2, 8)), domain="b")]
        with pytest.raises(DataError, match="mixed domains"):
            align_domain(group)

    def test_scaling_equivariance(self, rng):
        base = [rng.standard_normal((3, 64)) for _ in range(4)]
        aligned1, _ = align_domain([selected_of(x) for x in base])
        aligned2, _ = align_domain([selected_of(4.0 * x) for x in base])
        for t1, t2 in zip(aligned1, aligned2):
            assert np.allclose(t1.data, t2.data, atol=1e-10)

    def test_selection_then_align_equals_align_preselected(self, rng):
        xs = [rng.standard_normal((4, 32)) for _ in range(3)]
        trials = [trial_of(x, ("C3", "CZ", "C4", "F3")) for x in xs]
        path_a, _ = align_domain([select_channels(t, MI) for t in trials])
        pre = [trial_of(x[:3], ("C3", "CZ", "C4")) for x in xs]
        path_b, _ = align_domain([select_channels(t, MI) for t in pre])
        for a, b in zip(path_a, path_b):
            assert np.allclose(a.data, b.data)


class TestMapToTemplate:
    def test_placement_and_zero_padding(self):
        spec = TaskTemplateSpec("mi", ("FC3", "FC1", "FCZ"), 4)
        sel = SelectedTrial(
            data=np.array([[1.0, 2.0], [3.0, 4.0]]),
            selected=(("FC3", 0), ("FCZ", 2)), domain_id="d", label=1,
        )
        out = map_to_template(sel, spec)
        assert out.shape == (3, 4)
        assert np.array_equal(out[0], [1.0, 2.0, 0.0, 0.0])
        assert np.array_equal(out[1], np.zeros(4))  # FC1 absent
        assert np.array_equal(out[2], [3.0, 4.0, 0.0, 0.0])

    def test_full_set_full_length_no_padding(self, rng):
        spec = TaskTemplateSpec("mi", ("C3", "C4"), 8)
        x = rng.standard_normal((2, 8))
        sel = SelectedTrial(data=x, selected=(("C3", 0), ("C4", 1)),
                            domain_id="d", label=0)
        out = map_to_template(sel, spec)
        assert np.array_equal(out, x)

    def test_too_long_trial_rejected(self):
        spec = TaskTemplateSpec("mi", ("C3",), 4)
        sel = SelectedTrial(data=np.zeros((1, 5)), selected=(("C3", 0),),
                            domain_id="d", label=0)
        with pytest.raises(DataError, match="exceeds template"):
            map_to_template(sel, spec)

    def test_sparsity_count(self, rng):
        spec = TaskTemplateSpec("mi", ("C3", "CZ", "C4"), 10)
        x = rng.standard_normal((2, 6))
        sel = SelectedTrial(data=x, selected=(("C3", 0), ("C4", 2)),
                            domain_id="d", label=0)
        out = map_to_template(sel, spec)
        assert np.count_nonzero(out) <= 2 * 6


class TestAlignDataset:
    def test_writes_aligned_dataset_and_stats(self, tmp_path, rng):
        data = [rng.standard_normal((3, 40)) for _ in range(6)]
        write_toy_dataset(tmp_path / "raw", channels=("C3", "CZ", "C4"),
                          n_trials=6, n_samples=40, data=data,
                          domain_ids=["toy:s00:0"] * 3 + ["toy:s01:0"] * 3)
        manifest = load_manifest(str(tmp_path / "raw"))
        spec = TaskTemplateSpec("mi", ("C3", "CZ", "C4"), 64)
        out = align_dataset(manifest, str(tmp_path / "al"), spec)
        assert out.alignment["mapped"] is True
        assert len(out.trials) == 6
        stats_files = list((tmp_path / "al" / "alignment").glob("*.json"))
        assert len(stats_files) == 2
        assert set(out.alignment["stage_hashes"]) == {"selected", "aligned", "output"}

    def test_no_ea_passthrough_preserves_selected_rows(self, tmp_path, rng):
        data = [rng.standard_normal((2, 16)) for _ in range(2)]
        write_toy_dataset(tmp_path / "raw", channels=("C3", "C4"), n_trials=2,
                          n_samples=16, data=data, domain_ids=["toy:s0:0"] * 2)
        manifest = load_manifest(str(tmp_path / "raw"))
        spec = TaskTemplateSpec("mi", ("C3", "C4"), 16)
        out = align_dataset(manifest, str(tmp_path / "al"), spec, ea=False)
        from afpm.data_model import load_trial
        got = load_trial(out, 0)
        assert np.allclose(got.data, data[0].astype(np.float32), atol=1e-6)
