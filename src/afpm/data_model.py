"""Channel registry, task templates, and the on-disk dataset format.

A dataset on disk is a directory holding ``manifest.json`` plus one raw binary
file per trial (little-endian float32, row-major channels x time, no header).
Channel lists are stored once in the manifest and referenced per trial. A
trial in memory is its float32 matrix; its channels, label and domain are
read from its manifest record.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

MANIFEST_NAME = "manifest.json"
DATASET_FORMAT = "afpm-dataset-v1"

TASKS = ("mi", "erp")

# Target channel sets: 17 channels over the primary motor cortex for motor
# imagery, 28 channels over midline parietal/central regions for ERP.
MI_TEMPLATE_CHANNELS = (
    "FC3", "FC1", "FCZ", "FC2", "FC4",
    "C5", "C3", "C1", "CZ", "C2", "C4", "C6",
    "CP3", "CP1", "CPZ", "CP2", "CP4",
)
ERP_TEMPLATE_CHANNELS = (
    "FP1", "FP2", "F5", "F3", "FZ", "F4", "F6", "FCZ",
    "T7", "C3", "CZ", "C4", "T8",
    "CP3", "CPZ", "CP4",
    "P7", "P3", "PZ", "P4", "P8",
    "PO7", "PO3", "PO4", "PO8",
    "O1", "OZ", "O2",
)

# The one sample rate of every template, and so of all data that is aligned
# or trained on. Template lengths in samples at that rate: 5 s for MI
# (longest admissible training trial), 1 s for ERP.
TEMPLATE_RATE_HZ = 256.0
MI_TEMPLATE_LEN = 1280
ERP_TEMPLATE_LEN = 256


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Write through a temp file beside ``path``, moved over it when the block ends.

    If the block raises, the temp file is removed and an existing ``path``
    keeps its previous content, so no reader ever sees a partial file.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def echo_config(out_dir: str, command: str, args: dict, resolved: dict) -> str:
    """Write what a command used next to its outputs, as ``run_config.json``.

    ``resolved`` is the command's own settings: the resolved ``RunConfig``
    for ``train`` and ``ablate``, and for ``finetune`` with the checkpoint's
    ``fpe`` and ``transformer`` sections, the ``SynthSpec`` for
    ``synth``, the band edges, rate and unit scale for ``preprocess``, the
    template and stage switches for ``align``, and the checkpoint's task,
    classes and template for ``eval``.
    """
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "run_config.json")
    doc = {"command": command, "args": args, "resolved": resolved}
    with atomic_open(path) as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return path


def canonical_channel(name: str) -> str:
    """Canonicalize an electrode name: uppercase, separators stripped.

    Datasets disagree on casing ("Fcz" vs "FCZ") and some insert dots or
    spaces; comparison throughout the package is on this canonical form.
    """
    cleaned = name.strip().replace(".", "").replace(" ", "").upper()
    if not cleaned:
        raise DataError(f"empty channel name {name!r}")
    return cleaned


def canonical_channels(names) -> tuple[str, ...]:
    """Canonicalize a channel list and enforce uniqueness."""
    out = tuple(canonical_channel(n) for n in names)
    if len(set(out)) != len(out):
        dupes = sorted({n for n in out if out.count(n) > 1})
        raise DataError(f"duplicate channel names after canonicalization: {dupes}")
    return out


@dataclass(frozen=True)
class TaskTemplateSpec:
    """Unified model input layout: ordered target channels and template length."""

    task: str
    target_channels: tuple[str, ...]
    template_len: int

    def __post_init__(self):
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}, expected one of {TASKS}")
        if self.template_len < 1:
            raise DataError("template_len must be positive")
        object.__setattr__(self, "target_channels", canonical_channels(self.target_channels))

    @property
    def n_channels(self) -> int:
        return len(self.target_channels)


def task_template(task: str) -> TaskTemplateSpec:
    """Built-in template for ``task``: 'mi' (17 ch, 1280 samples) or 'erp' (28 ch, 256)."""
    task = task.lower()
    if task == "mi":
        return TaskTemplateSpec("mi", MI_TEMPLATE_CHANNELS, MI_TEMPLATE_LEN)
    if task == "erp":
        return TaskTemplateSpec("erp", ERP_TEMPLATE_CHANNELS, ERP_TEMPLATE_LEN)
    raise DataError(f"unknown task {task!r}, expected one of {TASKS}")


@dataclass(frozen=True)
class TrialRecord:
    path: str
    channel_set: str
    label: int
    domain_id: str
    n_samples: int


@dataclass(frozen=True)
class DatasetManifest:
    """Validated description of an on-disk dataset."""

    root: str
    name: str
    task: str
    rate_hz: float
    class_names: tuple[str, ...]
    channel_sets: dict[str, tuple[str, ...]]
    trials: tuple[TrialRecord, ...]
    unit_scale: float = 1.0
    alignment: dict | None = None

    def channels_of(self, rec: TrialRecord) -> tuple[str, ...]:
        return self.channel_sets[rec.channel_set]

    def all_channels(self) -> tuple[str, ...]:
        """Union of every referenced channel set, sorted for determinism."""
        names: set[str] = set()
        for rec in self.trials:
            names.update(self.channels_of(rec))
        return tuple(sorted(names))


def require_template_fit(manifests: list[DatasetManifest], task: str) -> None:
    """Reject a dataset that the ``task`` template does not fit as it stands.

    A dataset fits when it is laid out for ``task`` (an aligned dataset for
    the task of the template it was aligned to, any other for the task of its
    manifest), is sampled at ``TEMPLATE_RATE_HZ``, and has no unit conversion
    pending. ``preprocess`` gives a recording that rate and those units.
    """
    for m in manifests:
        found = m.alignment["task"] if m.alignment else m.task
        if found != task:
            how = "aligned" if m.alignment else "recorded"
            raise DataError(f"dataset {m.name!r} is {how} for task {found!r}, "
                            f"not for task {task!r}")
        if m.rate_hz != TEMPLATE_RATE_HZ:
            raise DataError(f"dataset {m.name!r} is sampled at {m.rate_hz:g} Hz, not at "
                            f"the template's {TEMPLATE_RATE_HZ:g} Hz; run preprocess first")
        if m.unit_scale != 1.0:
            raise DataError(f"dataset {m.name!r} has a unit conversion pending "
                            f"(unit_scale {m.unit_scale:g}); run preprocess first")


def require_unaligned(manifest: DatasetManifest) -> None:
    """Reject an aligned dataset: ``preprocess`` and ``align`` take a recording."""
    if manifest.alignment:
        raise DataError(f"dataset {manifest.name!r} is already aligned; "
                        "preprocess and align take unaligned data")


_MANIFEST_KEYS = {
    "format", "name", "task", "rate_hz", "unit_scale",
    "class_names", "channel_sets", "trials", "alignment",
}
_TRIAL_KEYS = {"path", "channels", "label", "domain_id", "n_samples"}


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise DataError(f"{where}: {msg}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _positive(value, where: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool)
             and 0 < value < math.inf, where, f"must be a positive number, got {value!r}")
    return float(value)


def _check_alignment(align) -> None:
    """The alignment section's fields that loading and stacking read."""
    _require(isinstance(align, dict), "manifest.alignment", "must be an object")
    for key, ok in (("task", align.get("task") in TASKS),
                    ("template_channels", _is_strings(align.get("template_channels"))),
                    ("template_len", _is_int(align.get("template_len"))
                     and align.get("template_len") > 0),
                    ("mapped", isinstance(align.get("mapped"), bool))):
        _require(ok, f"manifest.alignment.{key}",
                 f"missing or invalid, got {align.get(key)!r}")


def load_manifest(path: str) -> DatasetManifest:
    """Load and fully validate a dataset manifest.

    ``path`` may point at the manifest file itself or at its directory.
    Every field must have its documented JSON type, and every referenced
    trial file must be a regular file of exactly ``4 * n_channels *
    n_samples`` bytes, which one ``os.stat`` per trial checks.
    """
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isfile(path):
        raise DataError(f"manifest not found: {path}")
    with open(path, "r", encoding="utf-8") as f:
        try:
            raw = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise DataError(f"malformed manifest {path}: {e}") from e
    root = os.path.dirname(os.path.abspath(path))

    _require(isinstance(raw, dict), "manifest", "top level must be an object")
    unknown = set(raw) - _MANIFEST_KEYS
    _require(not unknown, "manifest", f"unknown keys {sorted(unknown)}")
    for key in ("name", "task", "rate_hz", "class_names", "channel_sets", "trials"):
        _require(key in raw, "manifest", f"missing key {key!r}")
    fmt = raw.get("format", DATASET_FORMAT)
    _require(fmt == DATASET_FORMAT, "manifest.format", f"unsupported format {fmt!r}")
    _require(isinstance(raw["name"], str), "manifest.name", "must be a string")
    task = raw["task"]
    _require(isinstance(task, str) and task.lower() in TASKS, "manifest.task",
             f"unknown task {task!r}")
    task = task.lower()
    rate_hz = _positive(raw["rate_hz"], "manifest.rate_hz")
    unit_scale = _positive(raw.get("unit_scale", 1.0), "manifest.unit_scale")
    _require(_is_strings(raw["class_names"]), "manifest.class_names",
             "must be a list of strings")
    class_names = tuple(raw["class_names"])
    _require(len(class_names) >= 2, "manifest.class_names", "need at least 2 classes")
    if raw.get("alignment") is not None:
        _check_alignment(raw["alignment"])

    _require(isinstance(raw["channel_sets"], dict), "manifest.channel_sets",
             "must be an object")
    channel_sets: dict[str, tuple[str, ...]] = {}
    for set_id, names in raw["channel_sets"].items():
        where = f"manifest.channel_sets[{set_id!r}]"
        _require(_is_strings(names), where, "must be a list of channel names")
        try:
            channel_sets[set_id] = canonical_channels(names)
        except DataError as e:
            raise DataError(f"{where}: {e}") from e

    _require(isinstance(raw["trials"], list), "manifest.trials", "must be a list")
    trials: list[TrialRecord] = []
    for i, t in enumerate(raw["trials"]):
        where = f"manifest.trials[{i}]"
        _require(isinstance(t, dict), where, "must be an object")
        unknown = set(t) - _TRIAL_KEYS
        _require(not unknown, where, f"unknown keys {sorted(unknown)}")
        for key in _TRIAL_KEYS:
            _require(key in t, where, f"missing key {key!r}")
        for key in ("path", "channels", "domain_id"):
            _require(isinstance(t[key], str), f"{where}.{key}", "must be a string")
        set_id = t["channels"]
        _require(set_id in channel_sets, f"{where}.channels",
                 f"unknown channel set {set_id!r}")
        label = t["label"]
        _require(_is_int(label), f"{where}.label", f"must be an integer, got {label!r}")
        _require(0 <= label < len(class_names), f"{where}.label",
                 f"label {label} out of range for {len(class_names)} classes")
        n_samples = t["n_samples"]
        _require(_is_int(n_samples) and n_samples > 0, f"{where}.n_samples",
                 f"must be a positive integer, got {n_samples!r}")
        rel = t["path"]
        try:
            st = os.stat(os.path.join(root, rel))
        except (OSError, ValueError):
            st = None
        _require(st is not None and stat.S_ISREG(st.st_mode), f"{where}.path",
                 f"missing file {rel!r}")
        expect = 4 * len(channel_sets[set_id]) * n_samples
        _require(st.st_size == expect, f"{where}.path",
                 f"size mismatch: {rel!r} has {st.st_size} bytes, expected {expect}")
        trials.append(TrialRecord(rel, set_id, label, t["domain_id"], n_samples))

    return DatasetManifest(
        root=root, name=raw["name"], task=task, rate_hz=rate_hz,
        class_names=class_names, channel_sets=channel_sets,
        trials=tuple(trials), unit_scale=unit_scale,
        alignment=raw.get("alignment"),
    )


def load_trial(manifest: DatasetManifest, index: int,
               out: np.ndarray | None = None) -> np.ndarray:
    """Read the float32 matrix [channels x samples] of trial ``index``.

    The payload is raw little-endian float32, row-major channels x time. The
    trial's channels, label and domain are those of ``manifest.trials[index]``.
    A payload of another size, or with a non-finite sample, is a one-line
    ``DataError`` naming it.

    The payload is read straight into a new array, or into ``out`` if given:
    a C-contiguous ``<f4`` array of the trial's shape (a row of a caller's
    stack, say), which is then returned. After an error ``out`` holds
    whatever was read.
    """
    if not 0 <= index < len(manifest.trials):
        raise DataError(f"trial index {index} out of range (dataset has {len(manifest.trials)})")
    rec = manifest.trials[index]
    shape = (len(manifest.channels_of(rec)), rec.n_samples)
    if out is None:
        data = np.empty(shape, dtype="<f4")
    elif out.shape != shape or out.dtype != np.dtype("<f4") or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous <f4 array of shape {shape}, "
                         f"got {out.dtype} {out.shape}")
    else:
        data = out
    path = os.path.join(manifest.root, rec.path)
    try:
        with open(path, "rb", buffering=0) as f:
            # One read(2) may return less than asked, so read until the
            # buffer is full or the file ends, then look one byte past it.
            buf = memoryview(data).cast("B")
            got = 0
            while got < len(buf) and (n := f.readinto(buf[got:])):
                got += n
            if got < len(buf):
                found = got // 4
            elif f.read(1):
                found = os.fstat(f.fileno()).st_size // 4
            else:
                found = None
    except OSError as e:
        raise DataError(f"cannot read {rec.path!r}: {e}") from e
    if found is not None:
        raise DataError(f"{rec.path!r}: size mismatch, {found} values, "
                        f"expected {data.size}")
    if not np.all(np.isfinite(data)):
        raise DataError(f"{rec.path!r}: non-finite sample")
    return data


@dataclass
class DatasetWriter:
    """Incrementally writes a dataset directory (trial payloads + manifest).

    Channel sets are deduplicated; trial payload files are numbered in the
    order trials are added, so on-disk order is the chronology of the set.
    """

    out_dir: str
    name: str
    task: str
    rate_hz: float
    class_names: tuple[str, ...]
    unit_scale: float = 1.0
    alignment: dict | None = None
    _sets: dict[tuple[str, ...], str] = field(default_factory=dict)
    _trials: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.task = self.task.lower()
        if self.task not in TASKS:
            raise DataError(f"unknown task {self.task!r}")
        os.makedirs(os.path.join(self.out_dir, "trials"), exist_ok=True)

    def add_trial(self, data: np.ndarray, channels, label: int, domain_id: str) -> str:
        data = np.ascontiguousarray(data, dtype="<f4")
        if data.ndim != 2:
            raise DataError(f"trial data must be 2-D, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise DataError("non-finite sample in trial data")
        channels = canonical_channels(channels)
        if data.shape[0] != len(channels):
            raise DataError("channel count does not match matrix rows")
        if not 0 <= int(label) < len(self.class_names):
            raise DataError(f"label {label} out of range")
        rel = os.path.join("trials", f"{len(self._trials):06d}.f32")
        data.tofile(os.path.join(self.out_dir, rel))
        self._trials.append({
            "path": rel,
            "channels": self._sets.setdefault(channels, str(len(self._sets))),
            "label": int(label),
            "domain_id": str(domain_id),
            "n_samples": int(data.shape[1]),
        })
        return rel

    def finish(self) -> DatasetManifest:
        doc = {
            "format": DATASET_FORMAT,
            "name": self.name,
            "task": self.task,
            "rate_hz": float(self.rate_hz),
            "unit_scale": float(self.unit_scale),
            "class_names": list(self.class_names),
            "channel_sets": {sid: list(chs) for chs, sid in self._sets.items()},
            "trials": self._trials,
        }
        if self.alignment is not None:
            doc["alignment"] = self.alignment
        path = os.path.join(self.out_dir, MANIFEST_NAME)
        with atomic_open(path) as f:
            json.dump(doc, f, indent=1, sort_keys=True)
            f.write("\n")
        # Payloads that an earlier, longer dataset left here are stale.
        listed = {os.path.basename(t["path"]) for t in self._trials}
        trials_dir = os.path.join(self.out_dir, "trials")
        for name in set(os.listdir(trials_dir)) - listed:
            if name.endswith(".f32"):
                os.remove(os.path.join(trials_dir, name))
        return load_manifest(path)
