import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import afpm.data_model
import afpm.pipeline
from afpm.alignment import align_dataset
from afpm.data_model import (
    DatasetWriter, TaskTemplateSpec, canonical_channel, canonical_channels,
    load_manifest, load_trial, task_template,
)
from afpm.errors import DataError
from afpm.pipeline import stack_aligned

from conftest import fail_writes_in, same_bits, write_toy_dataset


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
        """A payload reads back bit for bit, signed zeros and subnormals
        included, into a fresh array or into a caller's buffer."""
        tiny = np.finfo(np.float32).smallest_subnormal
        data = [np.array([[1.0, -0.0, 2.0], [3.0, tiny, -4.0]], dtype=np.float32)]
        write_toy_dataset(tmp_path, n_trials=1, channels=("C3", "C4"),
                          n_samples=3, data=data)
        manifest = load_manifest(str(tmp_path))
        trial = load_trial(manifest, 0)
        assert same_bits(trial, data[0])
        buf = np.full((2, 3), np.nan, dtype=np.float32)
        assert load_trial(manifest, 0, out=buf) is buf
        assert same_bits(buf, data[0])
        assert manifest.channels_of(manifest.trials[0]) == ("C3", "C4")

    @pytest.mark.parametrize("defect", ["short", "long", "nan", "missing"])
    def test_read_into_buffer_fails_as_a_fresh_read(self, defect, tmp_path):
        """A payload that changed after its manifest was loaded fails with the
        same one-line error, naming the payload, whether it is read into a
        fresh array or into a caller's buffer."""
        write_toy_dataset(tmp_path, n_trials=1, channels=("C3", "C4"), n_samples=8)
        manifest = load_manifest(str(tmp_path))
        payload = tmp_path / "trials" / "000000.f32"
        values = np.fromfile(payload, dtype="<f4")
        if defect == "short":
            values[:-3].tofile(payload)
        elif defect == "long":
            np.concatenate([values, values[:2]]).tofile(payload)
        elif defect == "nan":
            values[-1] = np.nan
            values.tofile(payload)
        else:
            payload.unlink()
        errors = []
        for out in (None, np.zeros((2, 8), dtype=np.float32)):
            with pytest.raises(DataError) as e:
                load_trial(manifest, 0, out=out)
            errors.append(str(e.value))
        assert errors[0] == errors[1]
        assert len(errors[0].splitlines()) == 1 and "trials/000000.f32" in errors[0]
        if defect in ("short", "long"):
            n = {"short": 13, "long": 18}[defect]
            assert f"size mismatch, {n} values, expected 16" in errors[0]

    def test_payload_arriving_in_short_reads_is_read_whole(self, tmp_path, monkeypatch):
        """A read(2) may return fewer bytes than asked; the payload is still
        read whole, and a payload one value long still fails."""
        data = [np.arange(16, dtype=np.float32).reshape(2, 8)]
        write_toy_dataset(tmp_path, n_trials=1, channels=("C3", "C4"), n_samples=8,
                          data=data)
        manifest = load_manifest(str(tmp_path))

        class ShortReads:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def readinto(self, buf):
                return self.f.readinto(memoryview(buf)[:5])

            def __getattr__(self, name):
                return getattr(self.f, name)

        monkeypatch.setattr(afpm.data_model, "open",
                            lambda *a, **k: ShortReads(open(*a, **k)), raising=False)
        for out in (None, np.full((2, 8), np.nan, dtype=np.float32)):
            assert same_bits(load_trial(manifest, 0, out=out), data[0])
        payload = tmp_path / "trials" / "000000.f32"
        np.append(data[0], np.float32(1)).tofile(payload)
        with pytest.raises(DataError, match="size mismatch, 17 values, expected 16"):
            load_trial(manifest, 0)

    def test_buffer_of_another_shape_or_dtype_is_refused(self, tmp_path):
        write_toy_dataset(tmp_path, n_trials=1, channels=("C3", "C4"), n_samples=8)
        manifest = load_manifest(str(tmp_path))
        for out in (np.zeros((2, 9), np.float32), np.zeros((2, 8)),
                    np.zeros((8, 2), np.float32).T):
            with pytest.raises(ValueError, match="out must be"):
                load_trial(manifest, 0, out=out)

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

    @pytest.mark.parametrize("form", ["absolute", "climbing"])
    def test_trial_path_outside_the_dataset_is_refused(self, form, tmp_path):
        """A payload of the right size at the target: only where it lies is wrong."""
        write_toy_dataset(tmp_path / "ds", n_trials=1)
        outside = tmp_path / "outside.f32"
        shutil.copy(tmp_path / "ds" / "trials" / "000000.f32", outside)
        doc = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        climbing = "trials/../../outside.f32"
        doc["trials"][0]["path"] = str(outside) if form == "absolute" else climbing
        (tmp_path / "ds" / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match=r"trials\[0\]\.path: .* not a path inside"):
            load_manifest(str(tmp_path / "ds"))

    def test_repeated_class_name_is_refused(self, tmp_path):
        write_toy_dataset(tmp_path, n_trials=1)
        doc = json.loads((tmp_path / "manifest.json").read_text())
        doc["class_names"] = ["class_a", "class_a"]
        (tmp_path / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(DataError, match="class_names: need at least 2 distinct"):
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


def stack_by_copies(manifests):
    """Reference stack: every trial read on its own and copied into the top
    left corner of its zero-filled row of the template."""
    align = manifests[0].alignment
    trials = [load_trial(m, i) for m in manifests for i in range(len(m.trials))]
    x = np.zeros((len(trials), len(align["template_channels"]), align["template_len"]),
                 dtype=np.float32)
    for row, trial in zip(x, trials):
        row[:trial.shape[0], :trial.shape[1]] = trial
    return x


@pytest.mark.parametrize("mapped", [True, False])
def test_stack_reads_each_trial_once_into_the_reference_stack(mapped, tmp_path,
                                                              monkeypatch):
    """Mapped trials fill their rows and are read straight into them; unmapped
    ones with fewer channels and samples than the template are read on their
    own and copied into a corner. Either way the stack equals the reference
    bit for bit, and each trial costs exactly one ``load_trial``."""
    spec = TaskTemplateSpec("mi", ("C3", "CZ", "C4", "C1"), 24)
    sets = []
    for k, channels in enumerate((("C3", "CZ", "C4"), ("C4", "C1"))):
        raw = write_toy_dataset(tmp_path / f"raw{k}", n_trials=4, channels=channels,
                                n_samples=20 - 4 * k)
        sets.append(align_dataset(raw, str(tmp_path / f"al{k}"), spec, mapping=mapped))
    reads = []

    def counted(manifest, index, out=None):
        reads.append((manifest.root, index, out is not None))
        return load_trial(manifest, index, out=out)

    monkeypatch.setattr(afpm.pipeline, "load_trial", counted)
    x, labels, domains, layout = stack_aligned(sets, "mi")
    assert sorted(reads) == sorted({(m.root, i, mapped) for m in sets for i in range(4)})
    assert same_bits(x, stack_by_copies(sets))
    assert layout["mapped"] is mapped and x.shape == (8, 4, 24)
    assert mapped or not x[:, 3:].any() and not x[:4, :, 20:].any()


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

    @pytest.mark.parametrize("channels", [["C3", "C3", "C4"], []])
    def test_repeated_or_no_template_channels_are_refused(self, aligned_manifest, channels):
        text, path = aligned_manifest
        path.write_text(_edit(text, ("alignment", "template_channels"), channels))
        with pytest.raises(DataError, match="alignment.template_channels"):
            load_manifest(str(path))

    @pytest.mark.parametrize("key_path, value", [
        (("rate_hz",), "abc"), (("channel_sets",), [["C3"]]), (("trials", 0, "label"), None),
        (("rate_hz",), 0),
    ])
    def test_type_errors_seen_before_are_data_errors(self, aligned_manifest,
                                                     key_path, value):
        text, path = aligned_manifest
        assert _load_or_data_error(path, _edit(text, key_path, value)) is None
