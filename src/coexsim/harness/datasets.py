"""Labeled dataset generation for the detector and the localizer.

Datasets follow the regulatory power convention: the combined cellular plus
noise density is pinned (-109 dBm/MHz, split equally between the two)
and the radar density is swept to hit each target SINR.  The radar seen
by the uplink is the same emitter scaled by a fixed coupling gain,
which ties the sensing-path SINR to the link-path interference so KPM
labels and spectrogram labels describe one physical condition.

Every item derives its RNG from (seed, item index), so regeneration with
the same seed is byte-identical regardless of chunking.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
import numbers
from pathlib import Path

import numpy as np

from ..errors import InvalidParamsError, MissingDataError
from ..localize import radar_truth_boxes, write_box_records, read_box_records
from ..ranlink import (
    KpmRecord,
    LinkConfig,
    RadarInterferenceProfile,
    UplinkSimulator,
    WINDOW_S,
    radar_psd_per_prb,
    write_kpm_csv,
)
from ..detect import KPM_FEATURES, check_count, check_seed, window_kpms
from ..fileio import (open_text, parse_field, read_csv, require_columns, write_csv,
                      write_sidecar)
from ..signals import (
    COMBINED_DBM_MHZ,
    N_PRBS,
    PRB_BANDWIDTH_HZ,
    RadarParams,
    SinrSpec,
    dbm_to_linear,
    sensing_capture,
)
from ..spectro import FFT_SIZE, HOP, WINDOW, load_spectrogram, save_spectrogram, stft_spectrogram

DEFAULT_SINR_SWEEP = (-4.0, 0.0, 4.0, 8.0, 12.0)
CENTER_OFFSETS_HZ = (-2.5e6, 0.0, 2.5e6)
DEFAULT_COUPLING_DB = 52.0   # sensing-reference to base-station interference gain

KPM_DATA_FILE = "kpm_dataset.csv"
ITEMS_FILE = "items.csv"
TRUTH_FILE = "truth_boxes.csv"


def draw_radar_params(rng: np.random.Generator) -> RadarParams:
    """Random in-range pulse train phase-jittered inside one window."""
    pw = float(rng.uniform(13e-6, 52e-6))
    prr = float(rng.uniform(500.0, 1100.0))
    max_pulses = int((WINDOW_S - pw) * prr) + 1
    n_pulses = min(max_pulses, max(1, int(WINDOW_S * prr)))
    slack = WINDOW_S - ((n_pulses - 1) / prr + pw)
    start = float(rng.uniform(0.0, max(slack - 1e-5, 0.0)))
    offset = float(rng.choice(CENTER_OFFSETS_HZ))
    return RadarParams(pw, prr, n_pulses, WINDOW_S, center_offset_hz=offset,
                       burst_start_s=start)


def interference_units(sinr_db: float, coupling_db: float = DEFAULT_COUPLING_DB) -> float:
    """Radar pulse-on power at the base station, in per-PRB-noise units."""
    spec = SinrSpec.from_target(sinr_db)
    d_radar = dbm_to_linear(spec.p_radar_dbm_mhz)          # mW/MHz peak
    noise_per_prb = dbm_to_linear(spec.p_noise_dbm_mhz) * PRB_BANDWIDTH_HZ / 1e6  # mW
    return dbm_to_linear(coupling_db) * d_radar / noise_per_prb


def interference_is_finite(sinr_db: float, coupling_db: float = DEFAULT_COUPLING_DB) -> bool:
    """Whether ``interference_units`` is finite, computed without its overflow
    warning or error."""
    try:
        with np.errstate(over="ignore"):
            return math.isfinite(interference_units(sinr_db, coupling_db))
    except OverflowError:
        return False


def _finite_number(value) -> bool:
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _check_sinr_sweep(sinr_sweep_db) -> None:
    """Each sweep SINR is a finite number with a finite radar power at the base
    station, so a bad level fails here, before any item, and not as an
    overflow or an infinite achieved SINR items later."""
    for i, sinr in enumerate(sinr_sweep_db):
        if not _finite_number(sinr):
            raise InvalidParamsError(f"sinr_sweep_db[{i}] must be a finite number, not {sinr!r}")
        if not interference_is_finite(sinr):
            raise InvalidParamsError(
                f"sinr_sweep_db[{i}] {sinr} with coupling_db {DEFAULT_COUPLING_DB} puts a radar "
                f"power at the base station that is not finite")


@dataclass(frozen=True)
class KpmDatasetConfig:
    sinr_sweep_db: tuple = DEFAULT_SINR_SWEEP
    items_per_class_per_sinr: int = 100
    records_per_item: int = 8
    seed: int = 0

    def __post_init__(self):
        check_count("items_per_class_per_sinr", self.items_per_class_per_sinr)
        check_count("records_per_item", self.records_per_item)
        check_seed(self.seed)
        _check_sinr_sweep(self.sinr_sweep_db)


def gen_kpm_dataset(out_dir, config: KpmDatasetConfig = KpmDatasetConfig()) -> Path:
    """Labeled KPM records under varied link conditions, radar on/off.

    Each item is a fresh short uplink run under one steady condition, so
    sliding windows never straddle a label change.  Link operating point
    (base SINR, MCS, offered load) is drawn per item to cover realistic
    spread; the radar parameters are drawn per radar item.  An item's
    records come from one ``UplinkSimulator.run`` over seeds drawn in one
    call, ``records_per_item`` values of ``rng.integers(2**63)``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records: list[KpmRecord] = []
    labels: list[int] = []
    items: list[list] = []
    mask = np.ones(N_PRBS, dtype=bool)
    item_idx = 0
    for sinr in config.sinr_sweep_db:
        for label in (0, 1):
            for _ in range(config.items_per_class_per_sinr):
                rng = np.random.default_rng([config.seed, item_idx])
                # Operating point mimics a link-adapted system: the serving
                # MCS sits 6..14 dB below the clean channel quality, so
                # radar-free BLER stays under ~5%.
                mcs = int(rng.integers(4, 29))
                margin_db = float(rng.uniform(6.0, 14.0))
                offered = float(rng.uniform(1.0, 5.0))
                if label:
                    params = draw_radar_params(rng)
                    profile = radar_psd_per_prb(params, interference_units(sinr))
                else:
                    profile = RadarInterferenceProfile.silent()
                sim = UplinkSimulator(LinkConfig(base_sinr_db=-6.0 + mcs + margin_db))
                seeds = rng.integers(2 ** 63, size=config.records_per_item).tolist()
                items.append([item_idx, len(records), config.records_per_item, sinr, label])
                records.extend(sim.run(mcs, mask, profile, offered, seeds))
                labels.extend([label] * config.records_per_item)
                item_idx += 1

    write_kpm_csv(out_dir / KPM_DATA_FILE, records, labels)
    write_csv(out_dir / ITEMS_FILE, ["item_id", "row_start", "n_records", "sinr_db", "label"],
              items)
    write_sidecar(out_dir / "dataset.meta", {
        "kind": "kpm",
        "seed": config.seed,
        "sinr_sweep_db": " ".join(str(s) for s in config.sinr_sweep_db),
        "items_per_class_per_sinr": config.items_per_class_per_sinr,
        "records_per_item": config.records_per_item,
        "coupling_db": DEFAULT_COUPLING_DB,
        "combined_dbm_mhz": COMBINED_DBM_MHZ,
    })
    return out_dir


def _read_columns(path: Path, names) -> np.ndarray:
    """The named columns of a CSV file that ``write_csv`` wrote, as ``[rows, names]`` floats;
    a cell missing or not a number raises InvalidParamsError naming its row and column,
    and bytes that are not UTF-8 name their offset."""
    with open_text(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        require_columns(path, header, names)
        body = fh.tell()
        if not fh.readline():  # a header and no rows
            return np.empty((0, len(names)))
        fh.seek(body)
        try:
            return np.loadtxt(fh, delimiter=",", usecols=[header.index(n) for n in names],
                              ndmin=2)
        except ValueError as exc:  # name the first cell missing or not a number
            fh.seek(body)
            for row_no, line in enumerate(fh, 1):
                if not line.strip():  # loadtxt skips blank lines
                    continue
                row = dict(zip(header, line.rstrip("\n").split(",")))
                for name in names:
                    parse_field(float, row, name, f"{path} row {row_no}")
            raise InvalidParamsError(f"{path}: {exc}") from None


def load_kpm_windows(dataset_dir, n_stack: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(windows ``[n, n_stack * N_FEATURES]``, labels, per-window sweep SINR).

    The records' features parse once into one ``[records, N_FEATURES]``
    matrix; each window is a row of its strided view that starts and ends
    inside one item.
    """
    dataset_dir = Path(dataset_dir)
    data_path = dataset_dir / KPM_DATA_FILE
    items_path = dataset_dir / ITEMS_FILE
    if not data_path.exists() or not items_path.exists():
        raise MissingDataError(f"no KPM dataset in {dataset_dir}")
    features = _read_columns(data_path, KPM_FEATURES)
    for name, column in zip(KPM_FEATURES, features.T):
        if not np.isfinite(column).all():
            raise InvalidParamsError(f"{data_path}: {name} holds a non-finite value")
    items = _read_columns(items_path, ["row_start", "n_records", "sinr_db", "label"])
    row_start, n_records = items[:, 0].astype(int), items[:, 1].astype(int)
    if np.any(row_start + n_records > len(features)):
        raise InvalidParamsError(f"{items_path} names records past the end of {data_path}")
    counts = np.maximum(n_records - n_stack + 1, 0)
    first = np.repeat(row_start - (np.cumsum(counts) - counts), counts)
    starts = first + np.arange(first.size)
    windows = window_kpms(features, n_stack)[starts]
    return windows, np.repeat(items[:, 3].astype(int), counts), np.repeat(items[:, 2], counts)


@dataclass(frozen=True)
class SpectrogramDatasetConfig:
    sinr_sweep_db: tuple = DEFAULT_SINR_SWEEP
    items_per_sinr: int = 100
    absent_fraction: float = 0.2   # extra cellular-only items per SINR point
    seed: int = 0

    def __post_init__(self):
        check_count("items_per_sinr", self.items_per_sinr)
        if not (_finite_number(self.absent_fraction) and self.absent_fraction >= 0):
            raise InvalidParamsError(f"absent_fraction must be a finite number >= 0, "
                                     f"not {self.absent_fraction!r}")
        check_seed(self.seed)
        _check_sinr_sweep(self.sinr_sweep_db)


def gen_spectrogram_dataset(out_dir,
                            config: SpectrogramDatasetConfig = SpectrogramDatasetConfig()
                            ) -> Path:
    """Composite spectrograms plus analysis-resolution ground-truth boxes.

    Truth boxes are extracted from the noise-free radar component with the
    same trim levels the reference localizer uses, so they describe what
    the pulse occupies at the STFT's resolution.
    """
    out_dir = Path(out_dir)
    (out_dir / "specs").mkdir(parents=True, exist_ok=True)
    truth_records = []
    items = []
    item_idx = 0
    for sinr in config.sinr_sweep_db:
        n_absent = int(round(config.items_per_sinr * config.absent_fraction))
        for has_radar in [True] * config.items_per_sinr + [False] * n_absent:
            rng = np.random.default_rng([config.seed, item_idx])
            file_id = f"item_{item_idx:05d}"
            cell_seed = int(rng.integers(2 ** 63))
            params = draw_radar_params(rng) if has_radar else None
            composite, radar, achieved = sensing_capture(
                params, sinr, WINDOW_S, cell_seed, noise_seed=int(rng.integers(2 ** 63)))
            # No spectrogram is bound to a name: one held into the next STFT
            # (4.9 MB) lifted the offline peak RSS.
            save_spectrogram(out_dir / "specs" / f"{file_id}.bin", stft_spectrogram(composite), {
                "file_id": file_id,
                "sinr_db": sinr,
                "achieved_sinr_db": repr(achieved),
                "has_radar": int(has_radar),
            })
            if has_radar:
                truth_records.extend((file_id, box)
                                     for box in radar_truth_boxes(stft_spectrogram(radar)))
            items.append([file_id, sinr, int(has_radar)])
            item_idx += 1

    write_box_records(out_dir / TRUTH_FILE, truth_records)
    write_csv(out_dir / ITEMS_FILE, ["file_id", "sinr_db", "has_radar"], items)
    write_sidecar(out_dir / "dataset.meta", {
        "kind": "spectrogram",
        "seed": config.seed,
        "sinr_sweep_db": " ".join(str(s) for s in config.sinr_sweep_db),
        "items_per_sinr": config.items_per_sinr,
        "absent_fraction": config.absent_fraction,
        "combined_dbm_mhz": COMBINED_DBM_MHZ,
        "fft_size": FFT_SIZE,
        "hop": HOP,
        "window": WINDOW,
    })
    return out_dir


def load_spectrogram_items(dataset_dir, keep=lambda sinr_db, has_radar: True):
    """Yields (file_id, sinr_db, has_radar, linear power, truth boxes) for each
    item that ``keep(sinr_db, has_radar)`` accepts; it loads no other.  The power
    is ``load_spectrogram``'s ``[freq, time]`` array, on the STFT's axes.  A
    malformed item cell or spectrogram file raises InvalidParamsError."""
    dataset_dir = Path(dataset_dir)
    items_path = dataset_dir / ITEMS_FILE
    if not items_path.exists():
        raise MissingDataError(f"no spectrogram dataset in {dataset_dir}")
    truth_by_id: dict[str, list] = {}
    truth_path = dataset_dir / TRUTH_FILE
    if truth_path.exists():
        for file_id, box in read_box_records(truth_path):
            truth_by_id.setdefault(file_id, []).append(box)
    with open_text(items_path) as fh:
        header = fh.readline().rstrip("\n").split(",")
    missing = [name for name in ("file_id", "sinr_db", "has_radar") if name not in header]
    if missing:
        raise MissingDataError(f"{items_path} is not a spectrogram item list: it lacks the "
                               f"column(s) {', '.join(missing)}")
    for row_no, row in enumerate(read_csv(items_path), 1):
        file_id, where = row["file_id"], f"{items_path} row {row_no}"
        sinr_db = parse_field(float, row, "sinr_db", where)
        has_radar = bool(parse_field(int, row, "has_radar", where))
        if keep(sinr_db, has_radar):
            power, _ = load_spectrogram(dataset_dir / "specs" / f"{file_id}.bin")
            yield file_id, sinr_db, has_radar, power, truth_by_id.get(file_id, [])
