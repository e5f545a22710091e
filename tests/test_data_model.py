import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import afpm.data_model
from afpm.alignment import align_dataset
from afpm.data_model import (
    DatasetWriter, TaskTemplateSpec, canonical_channel, canonical_channels,
    load_manifest, load_trial, task_template,
)
from afpm.errors import DataError
from afpm.pipeline import stack_aligned

from conftest import fail_writes_in, write_toy_dataset


def test_canonical_channel_uppercases_and_strips():
    assert canonical_channel("Fcz") == "FCZ"
    assert canonical_channel(" c3 ") == "C3"
    assert canonical_channel("Cp.z") == "CPZ"


def test_canonical_channels_rejects_duplicates():
    with pytest.raises(DataError, match="duplicate"):
        canonical_channels(["C3", "c3"])


def test_mi_template_is_the_17_motor_channels():
    spec = task_template("mi")
    assert spec.target_channels == (
        "FC3", "FC1", "FCZ", "FC2", "FC4",
        "C5", "C3", "C1", "CZ", "C2", "C4", "C6",
        "CP3", "CP1", "CPZ", "CP2", "CP4",
    )
    assert spec.n_channels == 17
    assert spec.template_len == 1280


def test_erp_template_is_the_28_channel_set_in_order():
    spec = task_template("erp")
    assert spec.target_channels == (
        "FP1", "FP2", "F5", "F3", "FZ", "F4", "F6", "FCZ",
        "T7", "C3", "CZ", "C4", "T8", "CP3", "CPZ", "CP4",
        "P7", "P3", "PZ", "P4", "P8", "PO7", "PO3", "PO4", "PO8",
        "O1", "OZ", "O2",
    )
    assert spec.n_channels == 28
    assert spec.template_len == 256


def test_trial_validation(tmp_path):
    writer = DatasetWriter(out_dir=str(tmp_path), name="x", task="mi",
                           rate_hz=256.0, class_names=("a", "b"))
    with pytest.raises(DataError, match="rows"):
        writer.add_trial(np.zeros((2, 4)), ("C3",), 0, "d")
    with pytest.raises(DataError, match="non-finite"):
        writer.add_trial(np.array([[np.nan, 0.0]]), ("C3",), 0, "d")


class TestManifestRoundTrip:
    def test_valid_toy_set_loads(self, tmp_path):
        write_toy_dataset(tmp_path, n_trials=3)
        manifest = load_manifest(str(tmp_path))
        assert len(manifest.trials) == 3
        assert len(manifest.class_names) == 2

    def test_trial_round_trip_is_bit_identical(self, tmp_path):
        data = [np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)]
        write_toy_dataset(tmp_path, n_trials=1, channels=("C3", "C4"),
                          n_samples=2, data=data)
        manifest = load_manifest(str(tmp_path))
        trial = load_trial(manifest, 0)
        assert trial.dtype == np.float32 and np.array_equal(trial, data[0])
        assert manifest.channels_of(manifest.trials[0]) == ("C3", "C4")

    def test_short_file_reports_size_mismatch(self, tmp_path):
        write_toy_dataset(tmp_path, n_trials=1)
        payload = tmp_path / "trials" / "000000.f32"
        blob = payload.read_bytes()
        payload.write_bytes(blob[:-40])  # 10 float32 values short
        with pytest.raises(DataError, match="size mismatch"):
            load_manifest(str(tmp_path))

    def test_label_out_of_range(self, tmp_path):
        write_toy_dataset(tmp_path, n_trials=1)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["trials"][0]["label"] = 2
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match="label 2 out of range"):
            load_manifest(str(tmp_path))

    def test_unknown_manifest_key_is_rejected(self, tmp_path):
        write_toy_dataset(tmp_path, n_trials=1)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["surprise"] = 1
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match="surprise"):
            load_manifest(str(tmp_path))

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_manifest(str(tmp_path / "nope"))

    def test_nan_payload_rejected_on_read(self, tmp_path):
        write_toy_dataset(tmp_path, n_trials=1)
        manifest = load_manifest(str(tmp_path))
        payload = tmp_path / "trials" / "000000.f32"
        arr = np.fromfile(payload, dtype="<f4")
        arr[0] = np.nan
        arr.tofile(payload)
        with pytest.raises(DataError, match="non-finite"):
            load_trial(manifest, 0)

    def test_trial_index_out_of_range(self, tmp_path):
        write_toy_dataset(tmp_path, n_trials=2)
        manifest = load_manifest(str(tmp_path))
        with pytest.raises(DataError, match="out of range"):
            load_trial(manifest, 2)


class TestGroupByDomain:
    """``align_dataset`` groups trials by domain, one channel set per domain."""

    def _align(self, tmp_path, domains, channel_sets=None):
        writer = DatasetWriter(out_dir=str(tmp_path / "raw"), name="g", task="mi",
                               rate_hz=256.0, class_names=("a", "b"))
        rng = np.random.default_rng(0)
        for i, d in enumerate(domains):
            chans = channel_sets[i] if channel_sets else ("C3", "C4")
            writer.add_trial(rng.standard_normal((len(chans), 8)), chans, i % 2, d)
        raw = writer.finish()
        out = align_dataset(raw, str(tmp_path / "al"))
        stats = json.loads((tmp_path / "al" / "alignment.json").read_text())
        return raw, out, {doc["domain_id"]: doc["d_count"] for doc in stats}

    def test_partition_by_id(self, tmp_path):
        _, _, counts = self._align(tmp_path, ["a", "a", "b", "b"])
        assert counts == {"a": 2, "b": 2}

    def test_single_trial_single_group(self, tmp_path):
        _, _, counts = self._align(tmp_path, ["only"])
        assert counts == {"only": 1}

    def test_heterogeneous_channels_rejected(self, tmp_path):
        with pytest.raises(DataError, match="heterogeneous channel"):
            self._align(tmp_path, ["a", "a"], [("C3", "C4"), ("C3", "CZ")])
        assert not (tmp_path / "al" / "manifest.json").exists()

    def test_groups_partition_the_input(self, tmp_path, rng):
        domains = [str(d) for d in rng.choice(list("abcd"), size=20)]
        raw, out, counts = self._align(tmp_path, domains)
        assert sum(counts.values()) == len(domains)
        assert counts == {d: domains.count(d) for d in set(domains)}
        assert [r.domain_id for r in out.trials] == domains
        assert [r.label for r in out.trials] == [r.label for r in raw.trials]


def test_writer_deduplicates_channel_sets(tmp_path):
    writer = DatasetWriter(out_dir=str(tmp_path), name="x", task="mi",
                           rate_hz=256.0, class_names=("a", "b"))
    writer.add_trial(np.zeros((2, 4)), ("C3", "C4"), 0, "d0")
    writer.add_trial(np.zeros((2, 4)), ("c3", "c4"), 1, "d0")
    manifest = writer.finish()
    assert len(manifest.channel_sets) == 1


def test_interrupted_manifest_write_keeps_previous(tmp_path, monkeypatch):
    write_toy_dataset(tmp_path, n_trials=2)
    before = (tmp_path / "manifest.json").read_bytes()
    writer = DatasetWriter(out_dir=str(tmp_path), name="other", task="mi",
                           rate_hz=128.0, class_names=("a", "b"))
    writer.add_trial(np.zeros((1, 8)), ("CZ",), 0, "d0")
    fail_writes_in(monkeypatch, afpm.data_model)
    with pytest.raises(OSError, match="mid-write"):
        writer.finish()
    assert (tmp_path / "manifest.json").read_bytes() == before
    assert not list(tmp_path.glob("*.tmp"))


@pytest.fixture(scope="module")
def aligned_manifest(tmp_path_factory):
    """Text of one aligned dataset's manifest, and the dataset directory."""
    root = tmp_path_factory.mktemp("manifest_fuzz")
    raw = write_toy_dataset(root / "raw", n_trials=4, n_samples=16)
    align_dataset(raw, str(root / "al"), TaskTemplateSpec("mi", ("C3", "CZ", "C4"), 16))
    path = root / "al" / "manifest.json"
    return path.read_text(encoding="utf-8"), path


def _load_or_data_error(path, text: str):
    """The loader's whole contract: a usable manifest, or DataError and nothing else."""
    path.write_text(text, encoding="utf-8")
    try:
        manifest = load_manifest(str(path))
    except DataError:
        return None
    assert isinstance(manifest.name, str) and manifest.rate_hz > 0
    assert all(isinstance(c, str) for c in manifest.class_names)
    for rec in manifest.trials:
        assert isinstance(rec.label, int) and 0 <= rec.label < len(manifest.class_names)
        assert isinstance(rec.domain_id, str) and rec.channel_set in manifest.channel_sets
    try:  # what loads also stacks, or is refused as data
        stack_aligned([manifest], manifest.task)
    except DataError:
        pass
    return manifest


def _manifest_keys(text: str) -> list[tuple]:
    doc = json.loads(text)
    sections = {(): doc, ("trials", 0): doc["trials"][0], ("alignment",): doc["alignment"]}
    return [where + (key,) for where, part in sections.items() for key in part]


def _edit(text: str, key_path: tuple, value=None, delete=False) -> str:
    doc = json.loads(text)
    part = doc
    for key in key_path[:-1]:
        part = part[key]
    if delete:
        del part[key_path[-1]]
    else:
        part[key_path[-1]] = value
    return json.dumps(doc)


class TestManifestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_truncated(self, aligned_manifest, data):
        text, path = aligned_manifest
        cut = data.draw(st.integers(0, len(text) - 1))
        _load_or_data_error(path, text[:cut])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_key_deleted(self, aligned_manifest, data):
        text, path = aligned_manifest
        key_path = data.draw(st.sampled_from(_manifest_keys(text)))
        _load_or_data_error(path, _edit(text, key_path, delete=True))

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), value=st.one_of(
        st.text(max_size=6),
        st.lists(st.one_of(st.integers(-2, 300), st.text(max_size=3)), max_size=4)))
    def test_value_replaced(self, aligned_manifest, data, value):
        text, path = aligned_manifest
        key_path = data.draw(st.sampled_from(_manifest_keys(text)))
        _load_or_data_error(path, _edit(text, key_path, value))

    @pytest.mark.parametrize("key_path, value", [
        (("rate_hz",), "abc"), (("channel_sets",), [["C3"]]), (("trials", 0, "label"), None),
        (("rate_hz",), 0),
    ])
    def test_type_errors_seen_before_are_data_errors(self, aligned_manifest,
                                                     key_path, value):
        text, path = aligned_manifest
        assert _load_or_data_error(path, _edit(text, key_path, value)) is None
