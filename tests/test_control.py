import math

import numpy as np
import pytest

from coexsim.control import (
    Action,
    CMD_BLANK,
    CMD_REQUEST_IQ,
    CMD_SET_MCS,
    CMD_STOP_IQ,
    CMD_UNBLANK_ALL,
    Command,
    LatencyLedger,
    McsControllerState,
    Mode,
    ModeState,
    STAGE_CONTROL_DISPATCH,
    STAGE_KPM_INFERENCE_POLICY,
    STAGE_LOCALIZATION_INFERENCE,
    STAGE_SPECTRUM_CONTROL,
    STAGE_SPECTROGRAM_BUILD,
    STAGE_TELEMETRY_INGEST,
    XappController,
    map_extent_to_prbs,
    mcs_update,
    mode_step,
    write_command_log,
)
from coexsim.detect import Detection
from coexsim.errors import (
    EmptyExtentError,
    InvalidParamsError,
    ProtocolViolationError,
)
from coexsim.localize import CELLULAR, RADAR, FreqTimeBox
from coexsim.ranlink import BAND_LOW_HZ, PRB_EDGES_HZ, WINDOW_S
from coexsim.signals import (
    DEFAULT_SAMPLE_RATE_HZ,
    N_PRBS,
    PRB_BANDWIDTH_HZ,
    CellularParams,
    _prb_bin_layout,
)


def aimd_oracle(mcs, bler_prev, bler, gamma=1.0, beta=2, thresh=5.0,
                mcs_min=0, mcs_max=28):
    """Straight-line transcription of the AIMD rule (with the updated-value
    return), independent of the production implementation."""
    if abs(bler - bler_prev) < gamma:
        return mcs, bler_prev, "HOLD"
    if bler > thresh:
        return max(mcs // beta, mcs_min), bler, "DECR"
    return min(mcs + beta, mcs_max), bler, "INCR"


class TestMcsUpdate:
    def test_hold_on_insignificant_change(self):
        s = McsControllerState(mcs=20, bler_prev=2.0)
        out = mcs_update(s, 2.5)
        assert out.last_action == Action.HOLD
        assert out.mcs == 20
        assert out.bler_prev == 2.0  # unchanged on HOLD

    def test_repeated_hold_returns_incoming_state(self):
        s = McsControllerState(mcs=20, bler_prev=2.0)
        assert mcs_update(s, 2.5) is s
        incr = McsControllerState(mcs=20, bler_prev=2.0, last_action=Action.INCR)
        out = mcs_update(incr, 2.5)
        assert out.last_action == Action.HOLD and out.mcs == 20 and out.bler_prev == 2.0

    def test_multiplicative_decrease(self):
        s = McsControllerState(mcs=20, bler_prev=2.0)
        out = mcs_update(s, 10.0)
        assert out.last_action == Action.DECR
        assert out.mcs == 10
        assert out.bler_prev == 10.0

    def test_additive_increase_clamped(self):
        s = McsControllerState(mcs=27, bler_prev=9.0)
        out = mcs_update(s, 1.0)
        assert out.last_action == Action.INCR
        assert out.mcs == 28

    def test_trace_equivalence_10k_random_sequences(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            state = McsControllerState(mcs=int(rng.integers(0, 29)),
                                       bler_prev=float(rng.uniform(0, 100)))
            o_mcs, o_prev = state.mcs, state.bler_prev
            for _ in range(int(rng.integers(1, 8))):
                bler = float(np.round(rng.uniform(0, 100), 1))
                state = mcs_update(state, bler)
                o_mcs, o_prev, o_act = aimd_oracle(o_mcs, o_prev, bler)
                assert state.mcs == o_mcs
                assert state.bler_prev == o_prev
                assert state.last_action.value == o_act

    def test_bounds_exhaustive(self):
        for mcs in range(29):
            for bler in np.arange(0.0, 100.05, 0.1):
                for prev in (0.0, 50.0, 100.0):
                    s = McsControllerState(mcs=mcs, bler_prev=prev)
                    out = mcs_update(s, float(bler))
                    assert 0 <= out.mcs <= 28

    def test_sustained_failure_converges_in_5_updates(self):
        # bler permanently above threshold and changing by >= gamma each step
        state = McsControllerState(mcs=28, bler_prev=0.0)
        blers = [100.0, 98.0, 100.0, 98.0, 100.0]
        steps_to_min = None
        for i, b in enumerate(blers):
            state = mcs_update(state, b)
            if state.mcs == 0:
                steps_to_min = i + 1
                break
        assert steps_to_min is not None
        assert steps_to_min <= math.ceil(math.log2(29)) == 5

    def test_bler_out_of_range(self):
        with pytest.raises(InvalidParamsError):
            mcs_update(McsControllerState(), 101.0)
        with pytest.raises(InvalidParamsError):
            mcs_update(McsControllerState(), -0.5)


def brute_force_prbs(extent, guard):
    """Oracle: loop every PRB and test positive-measure interval overlap."""
    f_low, f_high = extent
    hit = set()
    for i in range(N_PRBS):
        lo = BAND_LOW_HZ + i * PRB_BANDWIDTH_HZ
        hi = lo + PRB_BANDWIDTH_HZ
        if max(lo, f_low) < min(hi, f_high):
            hit.add(i)
    out = set()
    for i in hit:
        for g in range(-guard, guard + 1):
            if 0 <= i + g < N_PRBS:
                out.add(i + g)
    return out


class TestMapExtentToPrbs:
    def test_full_band(self):
        out = map_extent_to_prbs((-4.5e6, 4.5e6), guard_prbs=0)
        assert out == set(range(50))

    def test_exact_prb_span(self):
        lo = -4.5e6 + 10 * 180e3
        out = map_extent_to_prbs((lo, lo + 180e3), guard_prbs=0)
        assert out == {10}

    def test_straddling_boundary(self):
        edge = -4.5e6 + 11 * 180e3
        out = map_extent_to_prbs((edge - 1.0, edge + 1.0), guard_prbs=0)
        assert out == {10, 11}

    def test_guard_dilation(self):
        lo = -4.5e6 + 10 * 180e3
        out = map_extent_to_prbs((lo, lo + 180e3), guard_prbs=1)
        assert out == {9, 10, 11}

    def test_guard_clamped_at_band_edges(self):
        out = map_extent_to_prbs((-4.5e6, -4.5e6 + 180e3), guard_prbs=2)
        assert out == {0, 1, 2}

    def test_matches_brute_force_oracle_1000_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            a, b = np.sort(rng.uniform(-4.5e6, 4.5e6, 2))
            if a == b:
                continue
            guard = int(rng.integers(0, 3))
            got = map_extent_to_prbs((float(a), float(b)), guard)
            want = brute_force_prbs((float(a), float(b)), guard)
            assert got == want

    def test_blanked_superset_contains_radar_extent_prbs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a, b = np.sort(rng.uniform(-4.4e6, 4.4e6, 2))
            if a == b:
                continue
            base = map_extent_to_prbs((float(a), float(b)), 0)
            guarded = map_extent_to_prbs((float(a), float(b)), 1)
            assert base <= guarded

    def test_empty_extent(self):
        with pytest.raises(EmptyExtentError):
            map_extent_to_prbs((1e6, 1e6))


class TestOnePrbGrid:
    """The sensed cellular waveform, the link model's edges and blanking
    count in one PRB grid, at the Mode-2 capture length."""

    def test_waveform_bins_lie_in_their_prb(self):
        n = round(WINDOW_S * DEFAULT_SAMPLE_RATE_HZ)
        assert n == 153600
        params = CellularParams()
        prb_of_bin, counts = _prb_bin_layout(n, DEFAULT_SAMPLE_RATE_HZ, params.n_prbs,
                                             params.prb_bandwidth_hz)
        freqs = np.fft.fftfreq(n, d=1.0 / DEFAULT_SAMPLE_RATE_HZ)
        assert not PRB_EDGES_HZ.flags.writeable and PRB_EDGES_HZ.size == N_PRBS + 1
        for i in range(N_PRBS):
            f = freqs[prb_of_bin == i]
            assert f.size == counts[i] > 0
            assert (PRB_EDGES_HZ[i] <= f).all() and (f < PRB_EDGES_HZ[i + 1]).all()
        outside = freqs[prb_of_bin == N_PRBS]
        assert ((outside < PRB_EDGES_HZ[0]) | (outside >= PRB_EDGES_HZ[-1])).all()

    def test_each_prb_span_maps_to_its_prb(self):
        for i in range(N_PRBS):
            assert map_extent_to_prbs((PRB_EDGES_HZ[i], PRB_EDGES_HZ[i + 1]), 0) == {i}


def radar_box(f0=2.4e6, f1=2.6e6):
    return FreqTimeBox(f0, f1, 0.0, 1e-3, RADAR, 0.9)


class TestModeStep:
    def test_mode1_idle(self):
        state, cmds = mode_step(ModeState(), Detection(False, 0.9), None)
        assert state.mode == Mode.MODE1
        assert cmds == []

    def test_mode1_idle_returns_incoming_state(self):
        st = ModeState()
        state, cmds = mode_step(st, Detection(False, 0.9), None)
        assert state is st
        assert cmds == []

    def test_mode2_no_boxes_while_detected_returns_incoming_state(self):
        st = ModeState(mode=Mode.MODE2, blanked_prbs=frozenset({24, 25, 26}))
        state, cmds = mode_step(st, Detection(True, 0.9), [])
        assert state is st
        assert cmds == []

    def test_mode1_detection_escalates(self):
        state, cmds = mode_step(ModeState(), Detection(True, 0.95), None)
        assert state.mode == Mode.MODE2
        assert [c.kind for c in cmds] == [CMD_REQUEST_IQ]

    def test_mode2_blanks_localized_prbs(self):
        # box over PRBs 24-26: extent [-180e3, 360e3) in the DC-centered band
        box = FreqTimeBox(-180e3 + 1, 360e3 - 1, 0.0, 1e-3, RADAR, 0.9)
        st = ModeState(mode=Mode.MODE2)
        state, cmds = mode_step(st, Detection(True, 0.9), [box],
                                guard_prbs=0)
        assert state.mode == Mode.MODE2
        blank = [c for c in cmds if c.kind == CMD_BLANK]
        assert len(blank) == 1
        assert blank[0].payload == frozenset({24, 25, 26})

    def test_mode2_absence_returns_to_mode1(self):
        st = ModeState(mode=Mode.MODE2, blanked_prbs=frozenset({24, 25}))
        state, cmds = mode_step(st, Detection(False, 0.9), [])
        assert state.mode == Mode.MODE1
        assert state.blanked_prbs == frozenset()
        assert [c.kind for c in cmds] == [CMD_UNBLANK_ALL, CMD_STOP_IQ]

    def test_mode2_boxes_outrank_detector_absence(self):
        # blanking hides radar from KPMs; boxes must keep the system in MODE2
        st = ModeState(mode=Mode.MODE2, blanked_prbs=frozenset({30}))
        state, cmds = mode_step(st, Detection(False, 0.9), [radar_box()])
        assert state.mode == Mode.MODE2
        assert state.blanked_prbs  # still blanked

    def test_mode2_disagreement_keeps_blank_set(self):
        st = ModeState(mode=Mode.MODE2, blanked_prbs=frozenset({24, 25, 26}))
        state, cmds = mode_step(st, Detection(True, 0.9), [])
        assert state.mode == Mode.MODE2
        assert state.blanked_prbs == frozenset({24, 25, 26})
        assert cmds == []

    def test_cellular_boxes_do_not_blank(self):
        st = ModeState(mode=Mode.MODE2)
        cell_box = FreqTimeBox(-4.5e6, 4.5e6, 0.0, 10e-3, CELLULAR, 0.8)
        state, cmds = mode_step(st, Detection(False, 0.9), [cell_box])
        assert state.mode == Mode.MODE1  # no radar boxes, detector absent

    def test_localization_in_mode1_rejected(self):
        with pytest.raises(ProtocolViolationError):
            mode_step(ModeState(), Detection(False, 0.9), [])

    def test_no_duplicate_blank_commands(self):
        box = radar_box()
        st = ModeState(mode=Mode.MODE2)
        st, cmds1 = mode_step(st, Detection(True, 0.9), [box])
        assert any(c.kind == CMD_BLANK for c in cmds1)
        st, cmds2 = mode_step(st, Detection(True, 0.9), [box])
        assert not any(c.kind == CMD_BLANK for c in cmds2)

    def test_liveness_radar_absence_restores_mode1(self):
        # any scripted absence of >= 2 windows returns to MODE1, empty blanks
        st = ModeState(mode=Mode.MODE2, blanked_prbs=frozenset({24}))
        for _ in range(2):
            if st.mode == Mode.MODE2:
                st, _ = mode_step(st, Detection(False, 0.9), [])
            else:
                st, _ = mode_step(st, Detection(False, 0.9), None)
        assert st.mode == Mode.MODE1
        assert st.blanked_prbs == frozenset()


class TestXappController:
    def test_mcs_commands_on_change_only(self):
        ctrl = XappController()
        cmds = ctrl.step(Detection(False, 0.9), None, bler_pct=0.0)
        assert cmds == []  # HOLD: bler_prev starts at 0
        cmds = ctrl.step(Detection(False, 0.9), None, bler_pct=20.0)
        assert [c.kind for c in cmds] == [CMD_SET_MCS]
        assert cmds[0].payload == 14

    def test_policy_flags(self):
        ctrl = XappController(mcs_adaptation=False, blanking=False)
        cmds = ctrl.step(Detection(True, 0.9), None, bler_pct=50.0)
        assert cmds == []
        assert ctrl.mode_state.mode == Mode.MODE1

    def test_full_cycle(self):
        ctrl = XappController(guard_prbs=0)
        cmds = ctrl.step(Detection(True, 0.9), None, bler_pct=0.0)
        assert any(c.kind == CMD_REQUEST_IQ for c in cmds)
        box = FreqTimeBox(-180e3 + 1, 360e3 - 1, 0.0, 1e-3, RADAR, 0.9)
        cmds = ctrl.step(Detection(True, 0.9), [box], bler_pct=30.0)
        kinds = [c.kind for c in cmds]
        assert CMD_BLANK in kinds and CMD_SET_MCS in kinds
        cmds = ctrl.step(Detection(False, 0.9), [], bler_pct=30.0)
        kinds = [c.kind for c in cmds]
        assert CMD_UNBLANK_ALL in kinds and CMD_STOP_IQ in kinds


class TestLatencyLedger:
    def test_empty_totals(self):
        ledger = LatencyLedger()
        assert ledger.mode1_total_s() == 0.0
        assert ledger.mode2_total_s() == 0.0

    def test_mode1_total_from_stage_times(self):
        ledger = LatencyLedger()
        ledger.record_stage(STAGE_TELEMETRY_INGEST, 11e-3)
        ledger.record_stage(STAGE_KPM_INFERENCE_POLICY, 45e-3)
        ledger.record_stage(STAGE_CONTROL_DISPATCH, 70e-6)
        assert ledger.mode1_total_s() == pytest.approx(56.07e-3, rel=1e-6)

    def test_mode2_total(self):
        ledger = LatencyLedger()
        ledger.record_stage(STAGE_SPECTROGRAM_BUILD, 450e-3)
        ledger.record_stage(STAGE_LOCALIZATION_INFERENCE, 200e-3)
        ledger.record_stage(STAGE_CONTROL_DISPATCH, 70e-6)
        ledger.record_stage(STAGE_SPECTRUM_CONTROL, 12e-3)
        assert ledger.mode2_total_s() == pytest.approx(662.07e-3, rel=1e-6)

    def test_totals_are_sum_of_stage_means(self):
        ledger = LatencyLedger()
        for _ in range(4):
            ledger.record_stage(STAGE_TELEMETRY_INGEST, 2e-3)
            ledger.record_stage(STAGE_KPM_INFERENCE_POLICY, 1e-3)
            ledger.record_stage(STAGE_CONTROL_DISPATCH, 1e-4)
        assert ledger.mode1_total_s() == pytest.approx(3.1e-3)

    def test_timed_records_one_sample_and_returns_value(self):
        ledger = LatencyLedger()
        calls = []

        def work(a, b):
            calls.append((a, b))
            return a + b

        assert ledger.timed(STAGE_SPECTROGRAM_BUILD, work, 2, 3) == 5
        assert ledger.timed(STAGE_SPECTROGRAM_BUILD, work, 4, 5) == 9
        assert calls == [(2, 3), (4, 5)]
        assert ledger.counts[STAGE_SPECTROGRAM_BUILD] == 2
        assert ledger.totals_s[STAGE_SPECTROGRAM_BUILD] > 0.0
        assert all(n == 0 for stage, n in ledger.counts.items()
                   if stage != STAGE_SPECTROGRAM_BUILD)

    def test_unknown_stage_rejected(self):
        with pytest.raises(InvalidParamsError):
            LatencyLedger().record_stage("warp_drive", 1.0)

    def test_report_mentions_unmodeled_transport(self):
        report = LatencyLedger().report()
        assert "not modeled" in report
        assert "mode1 total" in report and "mode2 total" in report


class TestCommandLog:
    def test_write_format(self, tmp_path):
        entries = [
            (1.01, Command(CMD_REQUEST_IQ)),
            (1.02, Command(CMD_BLANK, frozenset({26, 24, 25}))),
            (1.02, Command(CMD_SET_MCS, 14)),
        ]
        path = tmp_path / "commands.csv"
        write_command_log(path, entries)
        lines = path.read_text().splitlines()
        assert lines[0] == "t_s,kind,payload"
        assert lines[2] == "1.02,BLANK,24 25 26"
        assert lines[3] == "1.02,SET_MCS,14"
