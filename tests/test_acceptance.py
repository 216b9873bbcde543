"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines; the assertions enforce the same bounds.
"""

import math
import time

import numpy as np
import pytest

from coexsim.control import McsControllerState, mcs_update, map_extent_to_prbs
from coexsim.detect import TrainConfig, loss_and_grads, train_detector
from coexsim.harness.datasets import (
    KpmDatasetConfig,
    SpectrogramDatasetConfig,
    gen_kpm_dataset,
    gen_spectrogram_dataset,
    load_kpm_windows,
)
from coexsim.harness.evaluate import localize_items, pooled_metrics, radar_slice
from coexsim.harness.scenario import (
    POLICY_BASELINE,
    POLICY_BLANKING,
    POLICY_FULL,
    RadarWindow,
    ScenarioConfig,
    run_scenario,
)
from coexsim.ranlink import BAND_LOW_HZ
from coexsim.signals import (
    N_PRBS,
    PRB_BANDWIDTH_HZ,
    RadarParams,
    SinrSpec,
    compute_sinr,
    gen_cellular_baseband,
    gen_radar_pulse_train,
    mix_at_sinr,
)
from coexsim.spectro import FFT_SIZE, HOP, stft_spectrogram

FS = 15.36e6


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}")


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def kpm_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "kpm"
    gen_kpm_dataset(out, KpmDatasetConfig(items_per_class_per_sinr=80, seed=101))
    return out


@pytest.fixture(scope="module")
def trained_models(kpm_dataset):
    """Detector per window size N in {1,2,3,4}; trained once, reused."""
    t0 = time.perf_counter()
    models = {}
    accs = {}
    counts = {}
    for n_stack in (1, 2, 3, 4):
        windows, labels, _ = load_kpm_windows(kpm_dataset, n_stack)
        result = train_detector(windows, labels, TrainConfig(seed=7))
        models[n_stack] = result.model
        accs[n_stack] = result.val_accuracy
        counts[n_stack] = int(np.sum(np.asarray(labels) == 1))
    elapsed = time.perf_counter() - t0
    return models, accs, counts, elapsed


@pytest.fixture(scope="module")
def spectro_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("acc") / "specs"
    cfg = SpectrogramDatasetConfig(sinr_sweep_db=(4.0, 8.0, 12.0),
                                   items_per_sinr=250, absent_fraction=0.0,
                                   seed=202)
    gen_spectrogram_dataset(out, cfg)
    return out


SCENARIO_PARAMS = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6)


@pytest.fixture(scope="module")
def scripted_run(trained_models, tmp_path_factory):
    models, _, _, _ = trained_models
    config = ScenarioConfig(
        duration_s=4.0,
        policy=POLICY_FULL,
        radar_schedule=[RadarWindow(1.0, 3.0, SCENARIO_PARAMS)],
        sinr_schedule=[(0.0, 8.0)],
        seed=77,
        output_dir=str(tmp_path_factory.mktemp("acc") / "scripted"),
    )
    t0 = time.perf_counter()
    result = run_scenario(config, models[1])
    return result, time.perf_counter() - t0


# ------------------------------------------------------------- criterion 1

def composite_sinr_oracle(out, radar_input, carrier_hz):
    """Eq.-1 oracle via band-power measurement on the composite alone:
    pulse-on density minus pulse-off density in the radar's 1 MHz band."""
    fs = FS

    def band_density(samples, lo, hi):
        n = len(samples)
        spectrum = np.fft.fft(samples)
        freqs = np.fft.fftfreq(n, d=1.0 / fs)
        sel = (freqs >= lo) & (freqs < hi)
        return np.sum(np.abs(spectrum[sel]) ** 2) / (n * n) / ((hi - lo) / 1e6)

    on = np.abs(radar_input.samples) > 0
    lo, hi = carrier_hz - 0.5e6, carrier_hz + 0.5e6
    d_on = band_density(out.samples[on], lo, hi)
    d_off = band_density(out.samples[~on][: on.sum() * 20], lo, hi)
    return 10.0 * np.log10((d_on - d_off) / d_off)


def test_criterion_1_sinr_calibration():
    t0 = time.perf_counter()
    radar = gen_radar_pulse_train(
        RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6), 10e-3)
    cell = gen_cellular_baseband(None, 10e-3, seed=31)
    worst = 0.0
    for target in (-4.0, 0.0, 4.0, 8.0, 12.0):
        out, achieved = mix_at_sinr(radar, cell, SinrSpec.from_target(target),
                                    seed=32)
        oracle = composite_sinr_oracle(out, radar, 2.5e6)
        worst = max(worst, abs(achieved - target), abs(oracle - target))
    elapsed = time.perf_counter() - t0
    ok = worst <= 0.5 and elapsed < 60.0
    report("criterion 1 (SINR calibration +/-0.5 dB, <1 min)", ok,
           f"worst error {worst:.3f} dB over sweep, {elapsed:.1f}s")
    assert worst <= 0.5
    assert elapsed < 60.0


def test_criterion_2_sinr_closed_form():
    spec = SinrSpec.from_target(20.0)
    assert spec.p_radar_dbm_mhz == -89.0
    err = abs(compute_sinr(spec) - 20.0)
    report("criterion 2 (Eq. closed form anchor 20 dB, 1e-9)", err <= 1e-9,
           f"error {err:.2e} dB")
    assert err <= 1e-9


def test_criterion_3_detection(trained_models):
    models, accs, counts, train_time = trained_models
    n_per_class = counts[4]
    acc_gate = accs[4]
    trend_ok = all(accs[n + 1] >= accs[n] - 0.01 for n in (1, 2, 3))
    ok = acc_gate >= 0.99 and n_per_class >= 2000 and train_time < 300 and trend_ok
    report("criterion 3 (detection >=99%, >=2000/class, <5 min, N-trend)", ok,
           f"val acc(N=4) {acc_gate:.4f}, radar windows {n_per_class}, "
           f"train {train_time:.0f}s, accs {[round(accs[n], 4) for n in (1, 2, 3, 4)]}")
    assert acc_gate >= 0.99
    assert n_per_class >= 2000
    assert train_time < 300
    assert trend_ok


def test_criterion_4_localization(spectro_dataset):
    # One pass over the stretch slice, which holds the gate slice.
    items = localize_items(spectro_dataset, radar_slice(4.0))
    gate = pooled_metrics(items, min_sinr_db=8.0)
    stretch = pooled_metrics(items, min_sinr_db=4.0)
    ok = gate.recall >= 0.95 and gate.n_truth >= 500
    report("criterion 4 (localization recall >=95% at SINR >=8)", ok,
           f"recall {gate.recall:.4f} over {gate.n_truth} truth boxes "
           f"({gate.n_pred} predictions), mean IoU {gate.mean_iou:.3f}")
    stretch_ok = stretch.recall >= 0.99 and stretch.mean_iou >= 0.90
    report("criterion 4 stretch (recall >=99%, IoU >=0.90 at SINR >=4; not a gate)",
           stretch_ok,
           f"recall {stretch.recall:.4f}, mean IoU {stretch.mean_iou:.4f}")
    assert gate.recall >= 0.95
    assert gate.n_truth >= 500


def test_criterion_5_aimd_fidelity():
    def oracle(mcs, prev, bler, gamma=1.0, beta=2, thresh=5.0, lo=0, hi=28):
        if abs(bler - prev) < gamma:
            return mcs, prev
        if bler > thresh:
            return max(mcs // beta, lo), bler
        return min(mcs + beta, hi), bler

    rng = np.random.default_rng(9)
    exact = True
    for _ in range(10_000):
        state = McsControllerState(mcs=int(rng.integers(0, 29)),
                                   bler_prev=float(rng.uniform(0, 100)))
        o_mcs, o_prev = state.mcs, state.bler_prev
        for _ in range(5):
            bler = float(rng.uniform(0, 100))
            state = mcs_update(state, bler)
            o_mcs, o_prev = oracle(o_mcs, o_prev, bler)
            if state.mcs != o_mcs or state.bler_prev != o_prev:
                exact = False
    bounds_ok = True
    for mcs in range(29):
        for bler in np.arange(0.0, 100.05, 0.1):
            out = mcs_update(McsControllerState(mcs=mcs, bler_prev=50.0), float(bler))
            bounds_ok &= 0 <= out.mcs <= 28
    state = McsControllerState(mcs=28, bler_prev=0.0)
    steps = 0
    for bler in (100.0, 98.0, 100.0, 98.0, 100.0):
        state = mcs_update(state, bler)
        steps += 1
        if state.mcs == 0:
            break
    conv_ok = state.mcs == 0 and steps <= math.ceil(math.log2(29))
    ok = exact and bounds_ok and conv_ok
    report("criterion 5 (AIMD oracle 10k exact, bounds, <=5-step convergence)",
           ok, f"exact={exact} bounds={bounds_ok} converged in {steps} steps")
    assert exact and bounds_ok and conv_ok


def test_criterion_6_prb_mapping():
    def brute(extent, guard):
        f_low, f_high = extent
        hit = set()
        for i in range(N_PRBS):
            lo = BAND_LOW_HZ + i * PRB_BANDWIDTH_HZ
            if max(lo, f_low) < min(lo + PRB_BANDWIDTH_HZ, f_high):
                hit.add(i)
        return {j for i in hit for j in range(i - guard, i + guard + 1)
                if 0 <= j < N_PRBS}

    rng = np.random.default_rng(10)
    exact = True
    for _ in range(1000):
        a, b = np.sort(rng.uniform(-4.5e6, 4.5e6, 2))
        if a == b:
            continue
        guard = int(rng.integers(0, 3))
        if map_extent_to_prbs((float(a), float(b)), guard) != brute((a, b), guard):
            exact = False
    report("criterion 6 (PRB mapping vs brute force, 1000 extents)", exact,
           "exact set equality" if exact else "mismatch found")
    assert exact


def test_criterion_7_closed_loop(scripted_run, trained_models, tmp_path):
    result, scripted_time = scripted_run
    models, _, _, _ = trained_models
    evac_ok = result.summary["evacuation_delay_s"] is not None and \
        result.summary["evacuation_delay_s"] <= 2 * 0.01 + 1e-9
    restore_ok = result.summary["restore_delay_s"] is not None and \
        result.summary["restore_delay_s"] <= 2 * 0.01 + 1e-9

    t0 = time.perf_counter()
    ordering_ok = True
    details = []
    for sinr in (0.0, 4.0, 8.0):
        blers = {}
        for policy in (POLICY_BASELINE, POLICY_BLANKING, POLICY_FULL):
            config = ScenarioConfig(
                duration_s=1.0, policy=policy,
                radar_schedule=[RadarWindow(0.3, 0.7, SCENARIO_PARAMS)],
                sinr_schedule=[(0.0, sinr)], seed=55)
            out = run_scenario(config,
                               None if policy == POLICY_BASELINE else models[1])
            blers[policy] = out.summary["mean_bler_pct"]
        ordering_ok &= (blers[POLICY_BASELINE] >= blers[POLICY_BLANKING]
                        >= blers[POLICY_FULL])
        details.append(f"{sinr:+.0f}dB: {blers[POLICY_BASELINE]:.2f}/"
                       f"{blers[POLICY_BLANKING]:.2f}/{blers[POLICY_FULL]:.2f}")
    total_time = scripted_time + (time.perf_counter() - t0)
    ok = evac_ok and restore_ok and ordering_ok and total_time < 120.0
    report("criterion 7 (closed loop: 2-window evac/restore, policy ordering, <2 min)",
           ok,
           f"evac {result.summary['evacuation_delay_s']}s, "
           f"restore {result.summary['restore_delay_s']}s, "
           f"BLER base/blank/full {'; '.join(details)}, {total_time:.0f}s")
    assert evac_ok and restore_ok
    assert ordering_ok
    assert total_time < 120.0


def test_criterion_8_timing(scripted_run):
    result, _ = scripted_run
    ledger = result.ledger
    mode1 = ledger.mode1_total_s()
    mode2 = ledger.mode2_total_s()
    ok = mode1 < 45e-3 and mode2 < 700e-3
    report("criterion 8 (Mode-1 <45 ms, Mode-2 <700 ms per window)", ok,
           f"mode1 {mode1 * 1e3:.2f} ms, mode2 {mode2 * 1e3:.1f} ms")
    assert mode1 < 45e-3
    assert mode2 < 700e-3


def test_criterion_9_numerical_hygiene():
    # Parseval within 1%
    from coexsim.signals import gen_awgn
    iq = gen_awgn(2.0, 1e-3, seed=21)
    lin = stft_spectrogram(iq)
    w = np.hanning(FFT_SIZE)
    parseval_ok = True
    for col in range(lin.shape[1]):
        frame = iq.samples[col * HOP:col * HOP + FFT_SIZE] * w
        err = abs(np.sum(lin[:, col]) - np.sum(np.abs(frame) ** 2))
        parseval_ok &= err <= 0.01 * np.sum(np.abs(frame) ** 2)

    # analytic gradients vs central differences on a 10-sample batch
    rng = np.random.default_rng(22)
    sizes = (8, 32, 16, 2)
    weights = [rng.normal(0, 0.5, (o, i)) for i, o in zip(sizes, sizes[1:])]
    biases = [rng.normal(0, 0.1, o) for o in sizes[1:]]
    x = rng.normal(0, 1, (10, 8))
    y = rng.integers(0, 2, 10)
    _, gw, gb = loss_and_grads(weights, biases, x, y)
    grad_ok = True
    eps = 1e-6
    for li in range(len(weights)):
        for arr, grad in ((weights[li], gw[li]), (biases[li], gb[li])):
            flat = arr.ravel()
            for k in rng.choice(flat.size, size=min(10, flat.size), replace=False):
                orig = flat[k]
                flat[k] = orig + eps
                lp, _, _ = loss_and_grads(weights, biases, x, y)
                flat[k] = orig - eps
                lm, _, _ = loss_and_grads(weights, biases, x, y)
                flat[k] = orig
                numeric = (lp - lm) / (2 * eps)
                analytic = grad.ravel()[k]
                diff = abs(numeric - analytic)
                denom = max(abs(numeric), abs(analytic), 1e-8)
                # central differences carry ~1e-10 cancellation noise, so
                # near-zero gradients are held to an absolute floor instead
                grad_ok &= diff < 1e-8 or diff / denom < 1e-4

    # softmax normalization within 1e-9
    from coexsim.detect import ClassifierModel
    model = ClassifierModel(sizes, weights, biases, np.zeros(8), np.ones(8))
    probs = model.forward(rng.normal(0, 5, (200, 8)))
    softmax_ok = bool(np.all(np.abs(probs.sum(axis=1) - 1.0) < 1e-9))

    ok = parseval_ok and grad_ok and softmax_ok
    report("criterion 9 (Parseval 1%, gradcheck 1e-4, softmax 1e-9)", ok,
           f"parseval={parseval_ok} gradients={grad_ok} softmax={softmax_ok}")
    assert parseval_ok and grad_ok and softmax_ok


def test_criterion_10_doppler_shift():
    def psd_argmax_hz(iq):
        n_cols = iq.n_samples // 1024
        frames = iq.samples[: n_cols * 1024].reshape(n_cols, 1024)
        psd = np.mean(np.abs(np.fft.fft(frames, axis=1)) ** 2, axis=0)
        return np.fft.fftfreq(1024, 1 / FS)[int(np.argmax(psd))]

    base = RadarParams(26e-6, 1000.0, 10, 10e-3)
    shifted = RadarParams(26e-6, 1000.0, 10, 10e-3, doppler_shift_hz=30e3)
    f0 = psd_argmax_hz(gen_radar_pulse_train(base, 10e-3))
    f1 = psd_argmax_hz(gen_radar_pulse_train(shifted, 10e-3))
    bin_width = FS / 1024
    err = abs((f1 - f0) - 30e3)
    ok = err <= bin_width
    report("criterion 10 (Doppler 30 kHz argmax shift +/- one bin)", ok,
           f"shift {(f1 - f0) / 1e3:.1f} kHz, error {err / 1e3:.1f} kHz "
           f"(bin {bin_width / 1e3:.1f} kHz)")
    assert err <= bin_width
