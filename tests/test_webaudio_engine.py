"""Engine correctness: nodes, params, graph, block renderer."""
import numpy as np
import pytest

from repro.platform.jitter import REFERENCE_PATH, parse_path
from repro.webaudio import OfflineAudioContext, RENDER_QUANTUM_FRAMES
from repro.webaudio.graph import topological_order


def _context(length=1024, rate=44100.0, channels=1):
    return OfflineAudioContext(channels, length, rate)


class TestOscillator:
    def test_sine_frequency(self):
        ctx = _context(length=4410)
        osc = ctx.create_oscillator()
        osc.frequency.value = 441.0
        osc.connect(ctx.destination)
        osc.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)
        t = np.arange(4410) / 44100.0
        assert np.allclose(data, np.sin(2 * np.pi * 441.0 * t), atol=1e-9)

    def test_not_started_is_silent(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        osc.connect(ctx.destination)
        assert np.all(ctx.start_rendering().get_channel_data(0) == 0.0)

    def test_start_stop_window(self):
        ctx = _context(length=1000)
        osc = ctx.create_oscillator()
        osc.connect(ctx.destination)
        osc.start(256 / 44100.0)
        osc.stop(512 / 44100.0)
        data = ctx.start_rendering().get_channel_data(0)
        assert np.all(data[:256] == 0.0)
        assert np.any(data[256:512] != 0.0)
        assert np.all(data[512:] == 0.0)

    def test_triangle_is_band_limited(self):
        """At 10 kHz/44.1 kHz only the fundamental fits below Nyquist, so the
        'triangle' collapses to a scaled sine — exactly what band-limited
        wavetable synthesis should do."""
        ctx = _context(length=2048)
        osc = ctx.create_oscillator()
        osc.type = "triangle"
        osc.frequency.value = 10000.0
        osc.connect(ctx.destination)
        osc.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)
        assert np.max(np.abs(data)) <= 8.0 / np.pi ** 2 + 1e-9

    def test_unknown_type_raises(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        osc.type = "noise"
        osc.connect(ctx.destination)
        osc.start(0.0)
        with pytest.raises(ValueError):
            ctx.start_rendering()


class TestGainAndParams:
    def test_constant_gain(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        gain = ctx.create_gain()
        gain.gain.value = 0.25
        osc.connect(gain).connect(ctx.destination)
        osc.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)

        ctx2 = _context()
        osc2 = ctx2.create_oscillator()
        osc2.connect(ctx2.destination)
        osc2.start(0.0)
        ref = ctx2.start_rendering().get_channel_data(0)
        assert np.allclose(data, 0.25 * ref)

    def test_linear_ramp(self):
        ctx = _context(length=RENDER_QUANTUM_FRAMES * 4)
        gain = ctx.create_gain()
        duration = ctx.length / ctx.sample_rate
        gain.gain.set_value_at_time(0.0, 0.0)
        gain.gain.linear_ramp_to_value_at_time(1.0, duration)
        values = gain.gain.values(0, ctx.length, ctx.sample_rate)
        expected = np.arange(ctx.length) / ctx.length
        assert np.allclose(values, expected, atol=1e-6)

    def test_set_value_holds(self):
        from repro.webaudio.param import AudioParam
        p = AudioParam(1.0)
        p.set_value_at_time(3.0, 0.5)
        v = p.values(0, 44100, 44100.0)
        assert np.all(v[:22050] == 1.0)
        assert np.all(v[22050:] == 3.0)


class TestMergerAndChannels:
    def test_merger_routes_inputs_to_channels(self):
        ctx = OfflineAudioContext(2, 512, 44100.0)
        osc = ctx.create_oscillator()
        merger = ctx.create_channel_merger(2)
        osc.connect(merger, input=1)  # only channel 1 carries signal
        merger.connect(ctx.destination)
        osc.start(0.0)
        buf = ctx.start_rendering()
        assert np.all(buf.get_channel_data(0) == 0.0)
        assert np.any(buf.get_channel_data(1) != 0.0)

    def test_merger_input_bounds(self):
        ctx = _context()
        merger = ctx.create_channel_merger(2)
        osc = ctx.create_oscillator()
        with pytest.raises(IndexError):
            osc.connect(merger, input=5)

    def test_fan_in_sums(self):
        ctx = _context()
        a, b = ctx.create_oscillator(), ctx.create_oscillator()
        a.connect(ctx.destination)
        b.connect(ctx.destination)
        a.start(0.0)
        b.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)

        ctx2 = _context()
        solo = ctx2.create_oscillator()
        solo.connect(ctx2.destination)
        solo.start(0.0)
        ref = ctx2.start_rendering().get_channel_data(0)
        assert np.allclose(data, 2.0 * ref, atol=1e-12)


class TestCompressor:
    def test_reduces_loud_signal_crest(self):
        """A full-scale signal must come out of the compressor attenuated
        relative to a pass-through render (gain reduction happened)."""
        ctx = _context(length=4096)
        osc = ctx.create_oscillator()
        comp = ctx.create_dynamics_compressor()
        osc.connect(comp).connect(ctx.destination)
        osc.start(0.0)
        out = ctx.start_rendering().get_channel_data(0)
        assert comp.reduction < -1.0  # dB of gain reduction was applied
        # once the envelope settles (no pre-delay, so skip the attack
        # transient) the compressed signal sits well below full scale
        assert np.max(np.abs(out[2048:])) < 1.0

    def test_compressor_is_deterministic(self):
        def render():
            ctx = _context(length=2048)
            osc = ctx.create_oscillator()
            osc.type = "square"
            comp = ctx.create_dynamics_compressor()
            osc.connect(comp).connect(ctx.destination)
            osc.start(0.0)
            return ctx.start_rendering().get_channel_data(0)

        assert np.array_equal(render(), render())


class TestAnalyser:
    def test_peak_bin_matches_tone(self):
        ctx = _context(length=4096)
        osc = ctx.create_oscillator()
        osc.frequency.value = 43.066406  # ~ bin 2 at fftSize 2048
        analyser = ctx.create_analyser()
        osc.connect(analyser).connect(ctx.destination)
        osc.start(0.0)
        ctx.start_rendering()
        db = analyser.get_float_frequency_data([None])[0]
        expected_bin = round(osc.frequency.value * analyser.fft_size / ctx.sample_rate)
        assert abs(int(np.argmax(db)) - expected_bin) <= 1
        # read again after rendering: the same data, not smoothed
        assert np.array_equal(analyser.get_float_frequency_data([None])[0], db)

    @staticmethod
    def _rendered_analyser():
        """An analyser on a rendered 1 kHz tone."""
        ctx = OfflineAudioContext(1, 4096, 44100.0)
        osc = ctx.create_oscillator()
        osc.frequency.value = 1000.0
        analyser = ctx.create_analyser()
        osc.connect(analyser).connect(ctx.destination)
        osc.start(0.0)
        ctx.start_rendering()
        return analyser

    def test_equal_paths_read_the_row_they_read_alone(self):
        """One row per jitter given, repeats included: each row is the
        bytes its path reads alone."""
        late, fused = parse_path("t1.d0.m1.p0"), parse_path("t0.d0.m0.p1")
        jitters = [late, fused, late, None, fused, None]
        db = self._rendered_analyser().get_float_frequency_data(jitters)
        assert db.shape == (6, 1024)
        alone = {j: self._rendered_analyser().get_float_frequency_data([j])[0]
                 for j in (late, fused, None)}
        for row, jitter in zip(db, jitters):
            assert row.tobytes() == alone[jitter].tobytes()
        assert len({row.tobytes() for row in db}) == 3

    def test_none_reads_the_reference_path(self):
        db = self._rendered_analyser().get_float_frequency_data(
            [None, parse_path(REFERENCE_PATH)])
        assert db[0].tobytes() == db[1].tobytes()

    def test_fft_size_validation(self):
        ctx = _context()
        analyser = ctx.create_analyser()
        with pytest.raises(ValueError):
            analyser.fft_size = 1000
        analyser.fft_size = 1024
        assert analyser.frequency_bin_count == 512

    def test_pass_through(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        analyser = ctx.create_analyser()
        osc.connect(analyser).connect(ctx.destination)
        osc.start(0.0)
        data = ctx.start_rendering().get_channel_data(0)
        assert np.any(data != 0.0)


class TestGraphAndContext:
    def test_cycle_detection(self):
        ctx = _context()
        a, b = ctx.create_gain(), ctx.create_gain()
        a.connect(b)
        b.connect(a)
        b.connect(ctx.destination)
        with pytest.raises(ValueError, match="cycle"):
            ctx.start_rendering()

    def test_topological_order_respects_edges(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        gain = ctx.create_gain()
        osc.connect(gain).connect(ctx.destination)
        order = topological_order(ctx._nodes)
        assert order.index(osc) < order.index(gain) < order.index(ctx.destination)

    def test_cross_context_connect_rejected(self):
        ctx1, ctx2 = _context(), _context()
        osc = ctx1.create_oscillator()
        with pytest.raises(ValueError):
            osc.connect(ctx2.destination)

    def test_non_quantum_aligned_length(self):
        ctx = _context(length=5000)  # 5000 = 39*128 + 8
        osc = ctx.create_oscillator()
        osc.connect(ctx.destination)
        osc.start(0.0)
        buf = ctx.start_rendering()
        assert buf.length == 5000

    def test_rendering_is_idempotent(self):
        ctx = _context()
        osc = ctx.create_oscillator()
        osc.connect(ctx.destination)
        osc.start(0.0)
        assert ctx.start_rendering() is ctx.start_rendering()

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            OfflineAudioContext(1, 0, 44100.0)
