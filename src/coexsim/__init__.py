"""coexsim: desk-scale closed-loop simulator for cellular-radar spectrum sharing.

Modules
-------
signals   radar/cellular/noise synthesis, SINR calibration, the PRB grid
spectro   STFT spectrograms and their file formats
ranlink   abstract uplink (SINR -> BLER -> throughput) and KPM telemetry
detect    KPM-window radar detector (numpy MLP) and its training loop
localize  energy-threshold spectrogram localization, IoU/recall metrics
control   AIMD MCS adaptation, PRB blanking, mode machine, latency ledger
harness   dataset generation, scenario engine, evaluation, CLI
"""

from .signals import (
    CellularParams,
    IqBuffer,
    RadarParams,
    SinrSpec,
    compute_sinr,
    gen_awgn,
    gen_cellular_baseband,
    gen_radar_pulse_train,
    measure_band_power,
    mix_at_sinr,
)
from .spectro import Spectrogram, StftConfig, stft_spectrogram
from .ranlink import (
    KpmRecord,
    LinkConfig,
    RadarInterferenceProfile,
    UplinkSimulator,
    apply_prb_mask,
    radar_psd_per_prb,
)
from .detect import (
    ClassifierModel,
    Detection,
    KpmWindow,
    TrainConfig,
    infer,
    train_detector,
    window_kpms,
)
from .localize import (
    FreqTimeBox,
    LocalizerConfig,
    evaluate_localizer,
    iou,
    localize,
    radar_freq_extent,
    radar_truth_boxes,
)
from .control import (
    LatencyLedger,
    McsControllerState,
    Mode,
    ModeState,
    XappController,
    map_extent_to_prbs,
    mcs_update,
    mode_step,
)

__version__ = "0.1.0"
