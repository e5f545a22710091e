from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ttest_ind

from afpm.data_model import MI_TEMPLATE_CHANNELS
from afpm.errors import ConfigError
from afpm.synth import (
    ERP_EVAL_SUBSETS, ERP_SIGNAL_CHANNELS, ERP_TRAIN_SUBSETS, MI_EVAL_SUBSETS,
    MI_TRAIN_SUBSETS, SynthSpec, default_subsets, generate_dataset, hemisphere,
)

from conftest import trials_of


def band_power(x, rate, lo, hi):
    spec = np.abs(np.fft.rfft(x, axis=-1)) ** 2
    f = np.fft.rfftfreq(x.shape[-1], 1.0 / rate)
    sel = (f >= lo) & (f <= hi)
    return spec[..., sel].mean(axis=-1)


def test_hemisphere_convention():
    assert hemisphere("C3") == "left"
    assert hemisphere("C4") == "right"
    assert hemisphere("FCZ") == "mid"
    assert hemisphere("FC1") == "left"
    assert hemisphere("CP2") == "right"


def test_catalogue_properties():
    montage = set(MI_TEMPLATE_CHANNELS)
    parts = [set(s) & montage for s in MI_TRAIN_SUBSETS]
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            assert not parts[i] & parts[j], "training subsets must be disjoint"
    for s in MI_EVAL_SUBSETS:
        assert set(s) not in [set(t) for t in MI_TRAIN_SUBSETS]
        sides = {hemisphere(c) for c in set(s) & montage}
        assert {"left", "right"} <= sides
    for s in ERP_TRAIN_SUBSETS + ERP_EVAL_SUBSETS:
        assert set(s) & set(ERP_SIGNAL_CHANNELS)


class TestMiGenerator:
    def _clean_spec(self, **kw):
        base = dict(task="mi", n_domains=1, trials_per_domain=200,
                    channel_subsets=(("C3", "C4"),), trial_len_s=2.0,
                    snr_db=20.0, domain_gain=0.0, domain_scale=0.0,
                    domain_mixing=0.0, name="clean")
        base.update(kw)
        return SynthSpec(**base)

    def test_class0_band_power_contrast_matches_attenuation(self, tmp_path):
        # left hand (class 0): C4 attenuated by a, C3 amplified by 2-a;
        # expected power ratio (a/(2-a))^2 at high snr
        a = 0.5
        spec = self._clean_spec(erd_attenuation=a)
        manifest = generate_dataset(spec, seed=5, out_dir=str(tmp_path / "mi"))
        trials = [x for rec, x in trials_of(manifest) if rec.label == 0]
        assert len(trials) >= 90
        p_c3 = np.mean([band_power(x[0], 256.0, 8, 12) for x in trials])
        p_c4 = np.mean([band_power(x[1], 256.0, 8, 12) for x in trials])
        expected = (a / (2.0 - a)) ** 2
        assert abs(p_c4 / p_c3 - expected) < 0.1 * expected

    def test_determinism_same_seed(self, tmp_path):
        spec = self._clean_spec(trials_per_domain=5)
        m1 = generate_dataset(spec, seed=9, out_dir=str(tmp_path / "a"))
        m2 = generate_dataset(spec, seed=9, out_dir=str(tmp_path / "b"))
        for r1, r2 in zip(m1.trials, m2.trials):
            b1 = Path(m1.root, r1.path).read_bytes()
            b2 = Path(m2.root, r2.path).read_bytes()
            assert b1 == b2

    def test_different_seed_different_data(self, tmp_path):
        spec = self._clean_spec(trials_per_domain=2)
        m1 = generate_dataset(spec, seed=1, out_dir=str(tmp_path / "a"))
        m2 = generate_dataset(spec, seed=2, out_dir=str(tmp_path / "b"))
        b1 = Path(m1.root, m1.trials[0].path).read_bytes()
        b2 = Path(m2.root, m2.trials[0].path).read_bytes()
        assert b1 != b2

    def test_noise_only_has_no_class_contrast(self, tmp_path):
        spec = self._clean_spec(snr_db=-np.inf, trials_per_domain=100)
        manifest = generate_dataset(spec, seed=3, out_dir=str(tmp_path / "mi"))
        contrast = []
        labels = []
        for rec, x in trials_of(manifest):
            contrast.append(np.log(band_power(x[1], 256.0, 8, 12))
                            - np.log(band_power(x[0], 256.0, 8, 12)))
            labels.append(rec.label)
        contrast = np.array(contrast)
        labels = np.array(labels)
        _, p = ttest_ind(contrast[labels == 0], contrast[labels == 1])
        assert p > 0.05


class TestErpGenerator:
    def test_target_minus_nontarget_peaks_near_300ms(self, tmp_path):
        spec = SynthSpec(task="erp", n_domains=1, trials_per_domain=300,
                         channel_subsets=(("PZ", "F3"),), trial_len_s=1.0,
                         snr_db=10.0, domain_gain=0.0, domain_scale=0.0,
                         domain_mixing=0.0, name="erp")
        manifest = generate_dataset(spec, seed=11, out_dir=str(tmp_path / "erp"))
        trials = list(trials_of(manifest))
        tgt = np.mean([x[0] for rec, x in trials if rec.label == 1], axis=0)
        non = np.mean([x[0] for rec, x in trials if rec.label == 0], axis=0)
        diff = tgt - non
        peak_s = np.argmax(diff) / 256.0
        assert 0.260 <= peak_s <= 0.340

    def test_class_ratio_one_to_five(self, tmp_path):
        spec = SynthSpec(task="erp", n_domains=2, trials_per_domain=120,
                         channel_subsets=(("PZ",), ("CZ",)), trial_len_s=0.5,
                         name="erp")
        manifest = generate_dataset(spec, seed=2, out_dir=str(tmp_path / "erp"))
        labels = np.array([t.label for t in manifest.trials])
        per_domain = 120
        n_targets = int(round(per_domain / 6.0))
        assert labels.sum() == 2 * n_targets

    def test_zero_amplitude_chance_auroc(self, tmp_path):
        from afpm.evaluation import auroc
        spec = SynthSpec(task="erp", n_domains=1, trials_per_domain=240,
                         channel_subsets=(("PZ",),), trial_len_s=0.5,
                         snr_db=-np.inf, domain_gain=0.0, domain_scale=0.0,
                         domain_mixing=0.0, name="erp")
        manifest = generate_dataset(spec, seed=7, out_dir=str(tmp_path / "erp"))
        trials = list(trials_of(manifest))
        # window-mean amplitude as a score: should carry no information
        scores = [x[0, 64:90].mean() for _, x in trials]
        labels = [rec.label for rec, _ in trials]
        assert abs(auroc(np.array(scores), np.array(labels)) - 0.5) < 0.1


class TestHeterogeneityAndSpec:
    def test_full_pipeline_consumes_heterogeneous_domains(self, tmp_path):
        from afpm.alignment import align_dataset
        from afpm.pipeline import stack_aligned
        spec = SynthSpec(task="mi", n_domains=3, trials_per_domain=6,
                         channel_subsets=(("C3", "C4", "O1"),
                                          ("FC3", "FC4", "CZ", "F7"),
                                          ("CP3", "CP4",)),
                         trial_len_s=(2.0, 1.5, 3.0), name="het")
        manifest = generate_dataset(spec, seed=0, out_dir=str(tmp_path / "het"))
        sizes = {m.n_samples for m in manifest.trials}
        assert sizes == {512, 384, 768}
        aligned = align_dataset(manifest, str(tmp_path / "al"))
        x, y, doms, layout = stack_aligned([aligned], "mi")
        assert x.shape == (18, 17, 1280)

    def test_subset_must_intersect_target_set(self):
        with pytest.raises(ConfigError, match="misses the task target set"):
            SynthSpec(task="mi", n_domains=1, trials_per_domain=2,
                      channel_subsets=(("O1", "O2"),))

    def test_default_subsets_cycle(self):
        subs = default_subsets("mi", 7)
        assert len(subs) == 7
        assert subs[0] == MI_TRAIN_SUBSETS[0]
        assert subs[6] == MI_TRAIN_SUBSETS[0]
        assert default_subsets("mi", 5, "train")[4] == MI_TRAIN_SUBSETS[0]
        assert default_subsets("erp", 3, "eval") == [*ERP_EVAL_SUBSETS, ERP_EVAL_SUBSETS[0]]

    def test_separability_monotone_in_snr(self, tmp_path):
        from afpm.evaluation import auroc as auroc_fn
        aurocs = []
        for snr in (-30.0, -15.0, 0.0):
            spec = SynthSpec(task="mi", n_domains=1, trials_per_domain=120,
                             channel_subsets=(("C3", "C4"),), trial_len_s=1.5,
                             snr_db=snr, domain_gain=0.0, domain_scale=0.0,
                             domain_mixing=0.0, name="snr")
            manifest = generate_dataset(spec, seed=21,
                                      out_dir=str(tmp_path / f"snr{snr}"))
            trials = list(trials_of(manifest))
            score = [float(np.log(band_power(x[1], 256, 8, 12))
                           - np.log(band_power(x[0], 256, 8, 12)))
                     for _, x in trials]
            labels = [rec.label for rec, _ in trials]
            aurocs.append(auroc_fn(np.array(score), np.array(labels)))
        assert aurocs[0] < aurocs[1] <= aurocs[2]
        assert aurocs[2] > 0.95
        assert aurocs[2] - aurocs[0] > 0.3
