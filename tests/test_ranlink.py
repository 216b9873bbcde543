from dataclasses import astuple

import numpy as np
import pytest
from scipy import special
from hypothesis import given, settings, strategies as st

from coexsim.errors import InvalidParamsError
from coexsim.ranlink import (
    BLER_SLOPE,
    PRB_EDGES_HZ,
    SYMBOL_OVERHEAD,
    KpmRecord,
    LinkConfig,
    RadarInterferenceProfile,
    SINR_REQUIRED_DB,
    SPECTRAL_EFFICIENCY,
    UplinkSimulator,
    _logistic,
    apply_prb_mask,
    check_mcs,
    radar_psd_per_prb,
    read_kpm_csv,
    write_kpm_csv,
)
from coexsim.signals import (
    N_PRBS,
    PRB_BANDWIDTH_HZ,
    RadarParams,
    gen_radar_pulse_train,
    measure_band_power,
)

FS = 15.36e6


def numeric_prb_psd_oracle(params, duration=10e-3):
    """Independent oracle: integrate the periodogram of a generated waveform
    per PRB, normalized to pulse-on (peak) total power."""
    iq = gen_radar_pulse_train(params, duration)
    on = np.abs(iq.samples) > 0
    on_power = np.mean(np.abs(iq.samples[on]) ** 2)
    duty = on.sum() / iq.n_samples
    edges = PRB_EDGES_HZ
    out = np.zeros(N_PRBS)
    for i in range(N_PRBS):
        width_mhz = (edges[i + 1] - edges[i]) / 1e6
        # average density * width = band power; de-rate duty to get peak power
        out[i] = measure_band_power(iq, edges[i], edges[i + 1]) * width_mhz / duty
    return out / on_power


class TestMcsTable:
    def test_shape_and_monotonicity(self):
        assert SPECTRAL_EFFICIENCY.size == SINR_REQUIRED_DB.size == 29
        assert SPECTRAL_EFFICIENCY[0] == pytest.approx(0.15)
        assert SPECTRAL_EFFICIENCY[28] == pytest.approx(5.55)
        assert SINR_REQUIRED_DB[0] == -6.0
        assert SINR_REQUIRED_DB[28] == 22.0
        assert np.all(np.diff(SPECTRAL_EFFICIENCY) > 0)
        assert np.all(np.diff(SINR_REQUIRED_DB) >= 0)

    def test_bad_index(self):
        with pytest.raises(InvalidParamsError):
            check_mcs(29)


class TestRadarPsdPerPrb:
    def test_main_lobe_concentration(self):
        # 13 us pulse centered on PRB 25 (center 90 kHz): first nulls at
        # +/-76.9 kHz, main lobe inside PRBs 24-26 holding >= 90% of power
        params = RadarParams(13e-6, 1000.0, 10, 10e-3, center_offset_hz=90e3)
        profile = radar_psd_per_prb(params, 1.0)
        total = profile.per_prb_interference.sum()
        assert profile.per_prb_interference[24:27].sum() >= 0.9 * total
        nulls = params.main_lobe_half_width_hz
        assert nulls == pytest.approx(76.9e3, rel=0.01)

    def test_matches_numeric_waveform_oracle(self):
        params = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=2.5e6)
        profile = radar_psd_per_prb(params, 1.0)
        oracle = numeric_prb_psd_oracle(params)
        # compare on PRBs holding meaningful power
        strong = oracle > 1e-3
        assert strong.any()
        assert np.allclose(profile.per_prb_interference[strong], oracle[strong],
                           rtol=0.15)

    def test_zero_power(self):
        profile = radar_psd_per_prb(
            RadarParams(13e-6, 500.0, 5, 10e-3), 0.0)
        assert not profile.per_prb_interference.any()

    def test_wider_pulse_concentrates_more(self):
        narrow = radar_psd_per_prb(RadarParams(13e-6, 500.0, 5, 10e-3,
                                               center_offset_hz=90e3), 1.0)
        wide = radar_psd_per_prb(RadarParams(52e-6, 500.0, 5, 10e-3,
                                             center_offset_hz=90e3), 1.0)
        assert wide.per_prb_interference[25] > narrow.per_prb_interference[25]

    def test_duty_cycle(self):
        p = radar_psd_per_prb(RadarParams(13e-6, 500.0, 5, 10e-3), 1.0)
        assert p.duty_cycle == pytest.approx(5 * 13e-6 / 10e-3)


def per_prb_psd(radar, p_radar_linear):
    """``radar_psd_per_prb`` as it was before it shared PRB edges: both
    antiderivative terms taken again for every PRB."""
    def antideriv(x):
        if x == 0.0:
            return 0.0
        si, _ = special.sici(2.0 * np.pi * x)
        return (si - np.sin(np.pi * x) ** 2 / (np.pi * x)) / np.pi

    edges = PRB_EDGES_HZ
    out = np.zeros(N_PRBS)
    if p_radar_linear > 0.0:
        pw = radar.pulse_width_s
        fc = radar.carrier_hz
        for i in range(N_PRBS):
            a = (edges[i] - fc) * pw
            b = (edges[i + 1] - fc) * pw
            out[i] = p_radar_linear * (antideriv(b) - antideriv(a))
    return out


class TestSharedPrbEdges:
    """One antiderivative per PRB edge equals the per-PRB pair bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(pw=st.floats(13e-6, 52e-6), power=st.floats(0.0, 1e9),
           edge=st.integers(0, 50), off_edge=st.sampled_from([0.0])
           | st.floats(-180e3, 180e3), doppler=st.sampled_from([0.0]) | st.floats(-5e4, 5e4))
    def test_equals_per_prb_pairs(self, pw, power, edge, off_edge, doppler):
        # the carrier on PRB edge ``edge`` when off_edge and doppler are 0
        offset = float(PRB_EDGES_HZ[edge]) + off_edge
        params = RadarParams(pw, 1000.0, 10, 10e-3, center_offset_hz=offset,
                             doppler_shift_hz=doppler)
        got = radar_psd_per_prb(params, power).per_prb_interference
        assert got.tobytes() == per_prb_psd(params, power).tobytes()


class TestApplyPrbMask:
    def test_empty_blank(self):
        mask = apply_prb_mask(set())
        assert mask.all() and mask.size == 50

    def test_idempotent(self):
        a = apply_prb_mask({24, 25, 26})
        b = apply_prb_mask({24, 25, 26})
        assert np.array_equal(a, b)
        assert not a[24] and not a[25] and not a[26]
        assert a.sum() == 47

    def test_blank_all(self):
        mask = apply_prb_mask(set(range(50)))
        assert not mask.any()

    def test_out_of_range(self):
        with pytest.raises(InvalidParamsError):
            apply_prb_mask({50})


class TestLinkStep:
    def test_interference_free_limit(self):
        link = LinkConfig(base_sinr_db=40.0, sinr_jitter_db=0.0)
        sim = UplinkSimulator(link)
        rec = sim.step(28, np.ones(50, bool),
                       RadarInterferenceProfile.silent(), 5.0, seed=0)
        assert rec.bler_pct < 0.1
        assert rec.throughput_mbps == pytest.approx(5.0)
        assert rec.bsr_bytes == 0

    def test_all_blanked(self):
        sim = UplinkSimulator(LinkConfig())
        rec = sim.step(28, np.zeros(50, bool),
                       RadarInterferenceProfile.silent(), 5.0, seed=0)
        assert rec.throughput_mbps == 0.0
        # backlog grows by the full offered load
        assert rec.bsr_bytes == int(5.0 * 1e6 * 0.01 / 8)

    def test_blanking_reduces_bler(self):
        link = LinkConfig(base_sinr_db=24.0, sinr_jitter_db=0.0)
        interference = np.zeros(50)
        interference[24:27] = 1e4
        profile = RadarInterferenceProfile(interference, 0.05)
        sim_a = UplinkSimulator(link)
        rec_hit = sim_a.step(28, np.ones(50, bool), profile, 5.0, seed=1)
        sim_b = UplinkSimulator(link)
        rec_blanked = sim_b.step(28, apply_prb_mask({24, 25, 26}),
                                 profile, 5.0, seed=1)
        assert rec_hit.bler_pct > rec_blanked.bler_pct

    def test_throughput_proportional_to_active_prbs(self):
        link = LinkConfig(base_sinr_db=45.0, sinr_jitter_db=0.0)
        prof = RadarInterferenceProfile.silent()
        tput = []
        for n in [10, 20, 40]:
            sim = UplinkSimulator(link)
            mask = np.zeros(50, bool)
            mask[:n] = True
            rec = sim.step(20, mask, prof, offered_load_mbps=1e9, seed=0)
            tput.append(rec.throughput_mbps)
        assert tput[1] == pytest.approx(2 * tput[0], rel=1e-6)
        assert tput[2] == pytest.approx(4 * tput[0], rel=1e-6)

    def test_sidelobe_residual_motivates_mcs_adaptation(self):
        # after blanking main-lobe PRBs, BLER at MCS 28 still exceeds MCS 10
        link = LinkConfig(base_sinr_db=30.0, sinr_jitter_db=0.0)
        params = RadarParams(26e-6, 1000.0, 10, 10e-3, center_offset_hz=90e3)
        profile = radar_psd_per_prb(params, 1e6)
        mask = apply_prb_mask({24, 25, 26})
        rec28 = UplinkSimulator(link).step(28, mask, profile, 50.0, seed=2)
        rec10 = UplinkSimulator(link).step(10, mask, profile, 50.0, seed=2)
        assert rec28.bler_pct > rec10.bler_pct
        assert rec10.bler_pct >= 0.0

    def test_backlog_accumulates_under_radar(self):
        link = LinkConfig(base_sinr_db=18.0, sinr_jitter_db=0.0)
        profile = RadarInterferenceProfile(np.full(50, 100.0), 0.5)
        sim = UplinkSimulator(link)
        prev = 0
        for k in range(5):
            rec = sim.step(28, np.ones(50, bool), profile, 5.0, seed=k)
            assert rec.bsr_bytes >= prev
            prev = rec.bsr_bytes
        assert prev > 0

    def test_deterministic_per_seed(self):
        link = LinkConfig()
        prof = RadarInterferenceProfile.silent()
        a = UplinkSimulator(link).step(20, np.ones(50, bool), prof, 3.0, seed=7)
        b = UplinkSimulator(link).step(20, np.ones(50, bool), prof, 3.0, seed=7)
        assert a == b

    def test_kpm_ranges_over_random_steps(self):
        rng = np.random.default_rng(11)
        link = LinkConfig(base_sinr_db=25.0)
        sim = UplinkSimulator(link)
        for k in range(200):
            interference = rng.uniform(0, 1e4, 50) * rng.integers(0, 2)
            profile = RadarInterferenceProfile(interference, rng.uniform(0, 0.2))
            mask = rng.random(50) > 0.2
            rec = sim.step(int(rng.integers(0, 29)), mask, profile,
                           float(rng.uniform(1, 5)), seed=k)
            assert 0 <= rec.bler_pct <= 100
            assert rec.throughput_mbps >= 0
            assert rec.bsr_bytes >= 0
            assert 0 <= rec.mcs <= 28

    @pytest.mark.parametrize("jitter", [-0.5, float("nan")])
    def test_bad_sinr_jitter_rejected(self, jitter):
        with pytest.raises(InvalidParamsError, match="sinr_jitter_db"):
            LinkConfig(sinr_jitter_db=jitter)

    def test_time_advances(self):
        sim = UplinkSimulator(LinkConfig())
        prof = RadarInterferenceProfile.silent()
        r1 = sim.step(28, np.ones(50, bool), prof, 1.0, seed=0)
        r2 = sim.step(28, np.ones(50, bool), prof, 1.0, seed=1)
        assert r2.t_s == pytest.approx(r1.t_s + 0.01)


def np_mean_step(sim, mcs, prb_mask, profile, offered_load_mbps, seed):
    """UplinkSimulator.step as it was with np.mean; the reference for the
    sum / count form."""
    link = sim.link
    rng = np.random.default_rng(seed)
    base_db = link.base_sinr_db + rng.normal(0.0, link.sinr_jitter_db)
    i_over_n = profile.per_prb_interference * profile.duty_cycle
    sinr_eff_db = base_db - 10.0 * np.log10(1.0 + i_over_n)
    active = np.asarray(prb_mask, dtype=bool)
    n_active = int(active.sum())
    if n_active == 0:
        sim.backlog_bits += offered_load_mbps * 1e6 * sim.period_s
        sim.t_s += sim.period_s
        return KpmRecord(sim.t_s, 0.0, 0.0, mcs, int(sim.backlog_bits / 8), base_db)
    required = float(SINR_REQUIRED_DB[mcs])
    per_prb_bler = _logistic(BLER_SLOPE * (required - sinr_eff_db[active]))
    bler = float(np.mean(per_prb_bler))
    capacity_mbps = (float(SPECTRAL_EFFICIENCY[mcs]) * n_active
                     * PRB_BANDWIDTH_HZ * SYMBOL_OVERHEAD
                     * (1.0 - bler)) / 1e6
    throughput = min(offered_load_mbps, capacity_mbps)
    sim.backlog_bits += max(0.0, (offered_load_mbps - throughput)
                            * 1e6 * sim.period_s)
    sim.t_s += sim.period_s
    return KpmRecord(sim.t_s, throughput, 100.0 * bler, mcs,
                     int(sim.backlog_bits / 8), float(np.mean(sinr_eff_db[active])))


class TestStepExactness:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), mcs=st.integers(0, 28),
           active_frac=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           radar=st.booleans(), base_sinr_db=st.floats(-10.0, 45.0),
           offered=st.floats(0.0, 20.0), n_steps=st.integers(1, 4))
    def test_step_equals_np_mean_step(self, seed, mcs, active_frac, radar,
                                      base_sinr_db, offered, n_steps):
        rng = np.random.default_rng(seed)
        link = LinkConfig(base_sinr_db=base_sinr_db,
                          sinr_jitter_db=float(rng.uniform(0.0, 3.0)))
        mask = rng.random(N_PRBS) < active_frac
        if radar:
            params = RadarParams(float(rng.uniform(13e-6, 52e-6)), 1000.0, 10, 10e-3,
                                 center_offset_hz=float(rng.uniform(-4e6, 4e6)))
            profile = radar_psd_per_prb(params, 10.0 ** rng.uniform(-2.0, 7.0))
        else:
            profile = RadarInterferenceProfile.silent()
        sim, ref = UplinkSimulator(link), UplinkSimulator(link)
        for _ in range(n_steps):
            step_seed = int(rng.integers(2 ** 63))
            got = sim.step(mcs, mask, profile, offered, step_seed)
            want = np_mean_step(ref, mcs, mask, profile, offered, step_seed)
            assert repr(astuple(got)) == repr(astuple(want))
            assert (sim.t_s, sim.backlog_bits) == (ref.t_s, ref.backlog_bits)


def draw_mask(rng, kind):
    """All, some, one or no PRBs active."""
    if kind == "all":
        return np.ones(N_PRBS, dtype=bool)
    if kind == "none":
        return np.zeros(N_PRBS, dtype=bool)
    if kind == "one":
        return np.arange(N_PRBS) == rng.integers(N_PRBS)
    return rng.random(N_PRBS) < rng.uniform(0.05, 0.95)


class TestRunExactness:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), mcs=st.integers(0, 28),
           mask_kind=st.sampled_from(["all", "some", "one", "none"]),
           radar=st.booleans(), base_sinr_db=st.floats(-10.0, 45.0),
           offered=st.floats(0.0, 20.0), n_seeds=st.integers(1, 8),
           n_before=st.integers(0, 2))
    def test_run_equals_np_mean_steps(self, seed, mcs, mask_kind, radar, base_sinr_db,
                                      offered, n_seeds, n_before):
        """``run`` over k seeds gives, field by field and by repr, the records of
        k calls of the reference step, and leaves the same clock and backlog."""
        rng = np.random.default_rng(seed)
        link = LinkConfig(base_sinr_db=base_sinr_db,
                          sinr_jitter_db=float(rng.uniform(0.0, 3.0)))
        mask = draw_mask(rng, mask_kind)
        if radar:
            params = RadarParams(float(rng.uniform(13e-6, 52e-6)), 1000.0, 10, 10e-3,
                                 center_offset_hz=float(rng.uniform(-4e6, 4e6)))
            profile = radar_psd_per_prb(params, 10.0 ** rng.uniform(-2.0, 7.0))
        else:
            profile = RadarInterferenceProfile.silent()
        sim, ref = UplinkSimulator(link), UplinkSimulator(link)
        for _ in range(n_before):  # a backlog and a clock already running
            step_seed = int(rng.integers(2 ** 63))
            sim.step(mcs, mask, profile, offered, step_seed)
            np_mean_step(ref, mcs, mask, profile, offered, step_seed)
        seeds = rng.integers(2 ** 63, size=n_seeds).tolist()
        got = sim.run(mcs, mask, profile, offered, seeds)
        want = [np_mean_step(ref, mcs, mask, profile, offered, s) for s in seeds]
        assert [repr(astuple(r)) for r in got] == [repr(astuple(r)) for r in want]
        assert (repr(sim.t_s), repr(sim.backlog_bits)) == \
            (repr(ref.t_s), repr(ref.backlog_bits))

    def test_no_seeds_no_records(self):
        sim = UplinkSimulator(LinkConfig())
        assert sim.run(10, np.ones(N_PRBS, bool), RadarInterferenceProfile.silent(),
                       2.0, []) == []
        assert (sim.t_s, sim.backlog_bits) == (0.0, 0.0)


class TestProfileLoss:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), duty=st.sampled_from([0.0, 1.0])
           | st.floats(0.0, 1.0), log_scale=st.floats(-3.0, 9.0))
    def test_equals_inline_expression(self, seed, duty, log_scale):
        arr = np.random.default_rng(seed).exponential(10.0 ** log_scale, N_PRBS)
        arr[::7] = 0.0
        profile = RadarInterferenceProfile(arr, duty)
        want = 10.0 * np.log10(1.0 + arr * duty)
        assert profile.sinr_loss_db.tobytes() == want.tobytes()

    def test_arrays_read_only_and_not_the_callers(self):
        arr = np.linspace(0.0, 5.0, N_PRBS)
        profile = RadarInterferenceProfile(arr, 0.5)
        loss = profile.sinr_loss_db.copy()
        arr[:] = 1e6  # a later write by the caller leaves the profile as it was
        assert np.array_equal(profile.per_prb_interference, np.linspace(0.0, 5.0, N_PRBS))
        assert np.array_equal(profile.sinr_loss_db, loss)
        for a in (profile.per_prb_interference, profile.sinr_loss_db):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 1.0


class TestKpmCsv:
    def test_round_trip_with_labels(self, tmp_path):
        sim = UplinkSimulator(LinkConfig())
        prof = RadarInterferenceProfile.silent()
        records = [sim.step(28, np.ones(50, bool), prof, 2.0, seed=k)
                   for k in range(5)]
        labels = [0, 0, 1, 1, 0]
        path = tmp_path / "kpm.csv"
        write_kpm_csv(path, records, labels)
        header = path.read_text().splitlines()[0]
        assert header == "t_s,throughput_mbps,bler_pct,mcs,bsr_bytes,sinr_db,label"
        back, back_labels = read_kpm_csv(path)
        assert back == records
        assert back_labels == labels

    def test_round_trip_without_labels(self, tmp_path):
        sim = UplinkSimulator(LinkConfig())
        prof = RadarInterferenceProfile.silent()
        records = [sim.step(10, np.ones(50, bool), prof, 2.0, seed=0)]
        path = tmp_path / "kpm.csv"
        write_kpm_csv(path, records)
        back, back_labels = read_kpm_csv(path)
        assert back == records and back_labels is None
