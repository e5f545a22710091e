import hashlib
import json
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afpm.alignment import (
    _digest_update, align_dataset, align_domain, inv_sqrt_psd, map_to_template,
    mean_covariance, select_channels,
)
from afpm.data_model import DatasetWriter, TaskTemplateSpec, load_manifest, task_template
from afpm.errors import DataError, NumericError

from conftest import random_spd, trials_of, write_toy_dataset

MI = task_template("mi")


class TestSelectChannels:
    def test_intersection_in_template_order(self, rng):
        x = rng.standard_normal((4, 16))
        pairs = select_channels(("C3", "CZ", "C4", "F3"), MI)
        # template order: C3 (idx 6), CZ (idx 8), C4 (idx 10)
        assert pairs == [(0, 6), (1, 8), (2, 10)]
        assert [MI.target_channels[row] for _, row in pairs] == ["C3", "CZ", "C4"]
        assert np.array_equal(x[[src for src, _ in pairs]], x[[0, 1, 2]])

    def test_full_set_permuted_to_template_order(self, rng):
        perm = list(rng.permutation(len(MI.target_channels)))
        channels = tuple(MI.target_channels[i] for i in perm)
        pairs = select_channels(channels, MI)
        assert [row for _, row in pairs] == list(range(17))
        for src, row in pairs:
            assert channels[src] == MI.target_channels[row]

    def test_original_order_mode(self):
        # sorted by trial row, the pairs follow the trial's own channel order
        pairs = sorted(select_channels(("C4", "CZ", "C3"), MI))
        assert [MI.target_channels[row] for _, row in pairs] == ["C4", "CZ", "C3"]
        assert [src for src, _ in pairs] == [0, 1, 2]

    def test_empty_intersection_rejected(self):
        with pytest.raises(DataError, match="no task-relevant channels"):
            select_channels(("O1", "O2"), MI)


class TestMeanCovariance:
    def test_identity_gram(self):
        r = mean_covariance([np.eye(2)])
        assert np.allclose(r, np.eye(2))

    def test_hand_computed_two_trials(self):
        r = mean_covariance([np.array([[1.0, 1.0]]), np.array([[3.0, 1.0]])])
        assert r.shape == (1, 1)
        assert r[0, 0] == pytest.approx(6.0)

    def test_output_is_psd(self, rng):
        group = [rng.standard_normal((4, 3)) for _ in range(5)]
        r = mean_covariance(group)
        evals = np.linalg.eigvalsh(r)
        assert evals.min() >= -1e-10 * np.trace(r)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DataError, match="mismatch"):
            mean_covariance([np.zeros((2, 4)), np.zeros((3, 4))])


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
        aligned, _ = align_domain([x])
        w = aligned[0]
        assert np.linalg.norm(w @ w.T - np.eye(3), "fro") < 1e-8

    def test_mean_aligned_covariance_is_identity(self, rng):
        group = [rng.standard_normal((4, 128)) for _ in range(6)]
        aligned, (r_bar, r_inv_sqrt) = align_domain(group)
        acc = sum(x @ x.T for x in aligned) / len(aligned)
        assert np.linalg.norm(acc - np.eye(4), "fro") < 1e-8
        assert np.array_equal(r_bar, mean_covariance(group))
        assert np.linalg.norm(r_inv_sqrt @ r_bar @ r_inv_sqrt - np.eye(4), "fro") < 1e-8

    def test_zero_trials_rejected(self):
        with pytest.raises(NumericError):
            align_domain([np.zeros((2, 8))])

    def test_scaling_equivariance(self, rng):
        base = [rng.standard_normal((3, 64)) for _ in range(4)]
        aligned1, _ = align_domain(base)
        aligned2, _ = align_domain([4.0 * x for x in base])
        for x1, x2 in zip(aligned1, aligned2):
            assert np.allclose(x1, x2, atol=1e-10)

    def test_selection_then_align_equals_align_preselected(self, rng):
        xs = [rng.standard_normal((4, 32)) for _ in range(3)]
        src = [s for s, _ in select_channels(("C3", "CZ", "C4", "F3"), MI)]
        path_a, _ = align_domain([x[src] for x in xs])
        src = [s for s, _ in select_channels(("C3", "CZ", "C4"), MI)]
        path_b, _ = align_domain([x[:3][src] for x in xs])
        for a, b in zip(path_a, path_b):
            assert np.allclose(a, b)


class TestMapToTemplate:
    def test_placement_and_zero_padding(self):
        spec = TaskTemplateSpec("mi", ("FC3", "FC1", "FCZ"), 4)
        out = map_to_template(np.array([[1.0, 2.0], [3.0, 4.0]]), [0, 2], spec)
        assert out.shape == (3, 4)
        assert np.array_equal(out[0], [1.0, 2.0, 0.0, 0.0])
        assert np.array_equal(out[1], np.zeros(4))  # FC1 absent
        assert np.array_equal(out[2], [3.0, 4.0, 0.0, 0.0])

    def test_full_set_full_length_no_padding(self, rng):
        spec = TaskTemplateSpec("mi", ("C3", "C4"), 8)
        x = rng.standard_normal((2, 8))
        out = map_to_template(x, [0, 1], spec)
        assert np.array_equal(out, x)

    def test_too_long_trial_rejected(self):
        spec = TaskTemplateSpec("mi", ("C3",), 4)
        with pytest.raises(DataError, match="exceeds template"):
            map_to_template(np.zeros((1, 5)), [0], spec)

    def test_sparsity_count(self, rng):
        spec = TaskTemplateSpec("mi", ("C3", "CZ", "C4"), 10)
        x = rng.standard_normal((2, 6))
        out = map_to_template(x, [0, 2], spec)
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
        stats = json.loads((tmp_path / "al" / "alignment.json").read_text())
        assert [doc["domain_id"] for doc in stats] == ["toy:s00:0", "toy:s01:0"]
        assert set(out.alignment["stage_hashes"]) == {"selected", "aligned", "output"}

    def test_rerun_stats_list_only_its_own_domains(self, tmp_path):
        """A 1-domain set aligned over a 2-domain output: ``alignment.json`` lists
        that one domain, and per-domain files of the older layout are removed."""
        spec = TaskTemplateSpec("mi", ("C3", "CZ", "C4"), 64)
        write_toy_dataset(tmp_path / "two", n_trials=4, n_samples=40,
                          domain_ids=["a:s0:0", "b:s1:0"] * 2)
        write_toy_dataset(tmp_path / "one", n_trials=2, n_samples=40,
                          domain_ids=["c:s2:0"] * 2)
        out = tmp_path / "al"
        align_dataset(load_manifest(str(tmp_path / "two")), str(out), spec)
        (out / "alignment").mkdir()
        (out / "alignment" / "0123456789abcdef.json").write_text('{"domain_id": "a:s0:0"}')
        align_dataset(load_manifest(str(tmp_path / "one")), str(out), spec)
        stats = json.loads((out / "alignment.json").read_text())
        assert [doc["domain_id"] for doc in stats] == ["c:s2:0"]
        assert not (out / "alignment").exists()

    def test_no_ea_passthrough_preserves_selected_rows(self, tmp_path, rng):
        data = [rng.standard_normal((2, 16)) for _ in range(2)]
        write_toy_dataset(tmp_path / "raw", channels=("C3", "C4"), n_trials=2,
                          n_samples=16, data=data, domain_ids=["toy:s0:0"] * 2)
        manifest = load_manifest(str(tmp_path / "raw"))
        spec = TaskTemplateSpec("mi", ("C3", "C4"), 16)
        out = align_dataset(manifest, str(tmp_path / "al"), spec, ea=False)
        from afpm.data_model import load_trial
        got = load_trial(out, 0)
        assert np.allclose(got, data[0].astype(np.float32), atol=1e-6)

    def test_output_stage_is_hashed_as_written(self, tmp_path, rng):
        """``align_dataset`` hashes each mapped float64 trial as it writes it:
        its traced peak stays below the bytes of all its outputs, and its
        ``output`` hash is the digest of the trials rebuilt stage by stage."""
        channels = ("C4", "O1", "C3", "CZ")
        domains = ["toy:s01:0", "toy:s00:0"] * 6
        data = [rng.standard_normal((4, 100)) for _ in domains]
        write_toy_dataset(tmp_path / "raw", channels=channels, n_trials=len(domains),
                          n_samples=100, data=data, domain_ids=domains)
        manifest = load_manifest(str(tmp_path / "raw"))
        tracemalloc.start()
        try:
            out = align_dataset(manifest, str(tmp_path / "al"), MI)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        output_bytes = len(domains) * MI.n_channels * MI.template_len * 8
        assert peak < output_bytes, f"{peak} >= {output_bytes} bytes"

        pairs = select_channels(channels, MI)
        src, rows = [s for s, _ in pairs], [r for _, r in pairs]
        raw = [x.astype(np.float64)[src] for _, x in trials_of(manifest)]
        rebuilt = {}
        for d in sorted(set(domains)):
            idx = [i for i, dom in enumerate(domains) if dom == d]
            rebuilt.update(zip(idx, align_domain([raw[i] for i in idx])[0]))
        expected = hashlib.sha256()
        _digest_update(expected, *(map_to_template(rebuilt[i], rows, MI)
                                   for i in range(len(domains))))
        assert out.alignment["stage_hashes"]["output"] == expected.hexdigest()


# Whitening fuzz: random on-disk datasets through ``align_dataset``.
FUZZ_CHANNELS = ("C3", "CZ", "C4", "FC3", "CP4", "O1", "O2")
FUZZ_SPEC = TaskTemplateSpec("mi", ("FC3", "C3", "CZ", "C4", "CP4"), 24)
# Trial scales: all-zero, float32 subnormal, tiny, unit and huge.
FUZZ_SCALES = (0.0, 1e-40, 1e-20, 1.0, 1e20, 1e36)


@st.composite
def fuzz_datasets(draw):
    """Trials as (domain id, channels, label, matrix), in manifest order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    domains = []
    for d in range(draw(st.integers(1, 3))):
        channels = draw(st.lists(st.sampled_from(FUZZ_CHANNELS), min_size=1,
                                 max_size=5, unique=True))
        domains.append((f"fz:s{d}:0", tuple(channels), draw(st.booleans())))
    trials = []
    for _ in range(draw(st.integers(1, 8))):
        domain_id, channels, rank_one = draw(st.sampled_from(domains))
        n = draw(st.integers(1, FUZZ_SPEC.template_len + 2))
        x = draw(st.sampled_from(FUZZ_SCALES)) * rng.standard_normal((len(channels), n))
        if rank_one:
            x[:] = x[0]
        trials.append((domain_id, channels, draw(st.integers(0, 1)), x))
    return trials


class TestWhiteningFuzz:
    @settings(max_examples=80, deadline=None)
    @given(trials=fuzz_datasets())
    def test_aligned_or_data_or_numeric_error(self, trials):
        with tempfile.TemporaryDirectory() as tmp:
            writer = DatasetWriter(out_dir=f"{tmp}/raw", name="fz", task="mi",
                                   rate_hz=256.0, class_names=("a", "b"))
            for domain_id, channels, label, x in trials:
                writer.add_trial(x, channels, label, domain_id)
            raw = writer.finish()
            try:
                out = align_dataset(raw, f"{tmp}/al", FUZZ_SPEC)
            except DataError:
                return
            except NumericError:
                # every domain is whitened before anything is written
                assert not Path(tmp, "al", "alignment.json").exists()
                assert not Path(tmp, "al", "manifest.json").exists()
                return
            docs = json.loads(Path(tmp, "al", "alignment.json").read_text())
            stats = {doc["domain_id"]: doc for doc in docs}
            assert [doc["domain_id"] for doc in docs] == sorted(stats), \
                "one object per domain, in id order"
            check_whitened(raw, out, stats)


def check_whitened(raw, out, stats):
    """Order, labels and domains kept; zeros off the selected rows; mean XX^T = I."""
    assert [(r.label, r.domain_id) for r in out.trials] == \
        [(r.label, r.domain_id) for r in raw.trials]
    assert {r.domain_id for r in raw.trials} == set(stats)
    grams: dict[str, list] = {d: [] for d in stats}
    for (rec, x), (_, y) in zip(trials_of(raw), trials_of(out)):
        doc = stats[rec.domain_id]
        rows = [FUZZ_SPEC.target_channels.index(ch) for ch in doc["channels"]]
        src = [raw.channels_of(rec).index(ch) for ch in doc["channels"]]
        assert y.shape == (FUZZ_SPEC.n_channels, FUZZ_SPEC.template_len)
        off = np.ones(y.shape, dtype=bool)
        off[rows, :rec.n_samples] = False
        assert not np.any(y[off]), "unselected rows and padding must be exactly zero"
        active = y[rows, :rec.n_samples].astype(np.float64)
        want = np.asarray(doc["r_inv_sqrt"]) @ x[src].astype(np.float64)
        if np.linalg.cond(np.asarray(doc["r_bar"])) < 1e8:
            # float32 storage: relative rounding, and underflow below 1e-37
            assert np.allclose(active, want, rtol=1e-5,
                               atol=1e-5 * np.abs(want).max() + 1e-37)
        grams[rec.domain_id].append(active @ active.T)
    for domain_id, doc in stats.items():
        if np.linalg.cond(np.asarray(doc["r_bar"])) < 1e8:
            mean = sum(grams[domain_id]) / len(grams[domain_id])
            assert np.abs(mean - np.eye(len(doc["channels"]))).max() < 1e-4, domain_id
