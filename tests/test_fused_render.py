"""Fused render path contracts.

The fused whole-buffer path exists purely as cost control: it must be
*bit-identical* to the 128-frame quantum loop for every vector, FFT
backend, and batch composition — same eFP digests, same StudyDataset
bytes — or it may not run at all (``fused_order`` declines and the
quantum loop takes over). These tests pin that invariant, the fusibility
decision rules and the study runner's pool clamp.
"""
import numpy as np
import pytest

from repro import RenderCache, run_study
from repro.obs import Recorder
from repro.platform import AudioStack
from repro.platform.jitter import sample_path, sample_repertoire
from repro.vectors import AUDIO_VECTORS, get_vector
from repro.vectors.base import RENDER_LENGTH
from repro.webaudio import RENDER_PATHS, OfflineAudioContext
from repro.webaudio.config import EngineConfig
from repro.webaudio.fft import FFT_BACKENDS
from repro.webaudio.graph import fused_order
from repro.webaudio.node import AudioNode, mix_to_channels

BACKENDS = sorted(FFT_BACKENDS)


def _paths_under_load(rng, count):
    """Heavy-load jitter paths: duplicates dominate, so batches exercise
    the analyser's readout dedup alongside genuinely distinct rows."""
    repertoire = sample_repertoire(rng, 0.9)
    return [sample_path(rng, 0.9, repertoire) for _ in range(count)]


def _force_path(monkeypatch, path):
    monkeypatch.setenv("REPRO_RENDER_PATH", path)


class TestFusedMatchesQuantum:
    """Every digest the fused path produces equals the quantum loop's."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(AUDIO_VECTORS))
    def test_batched_digests_identical(self, name, backend, monkeypatch):
        vector = get_vector(name)
        stack = AudioStack("blink", "ucrt", backend, "blink")
        rng = np.random.default_rng(hash((name, backend, "fused")) % 2**32)
        paths = _paths_under_load(rng, 7)
        _force_path(monkeypatch, "quantum")
        quantum = vector.render_batch(stack, paths)
        _force_path(monkeypatch, "fused")
        fused = vector.render_batch(stack, paths)
        assert fused == quantum

    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_every_batch_size(self, batch, monkeypatch):
        vector = get_vector("hybrid")
        stack = AudioStack("gecko", "glibc", "splitradix", "gecko", 48000)
        rng = np.random.default_rng(batch)
        paths = _paths_under_load(rng, batch)
        _force_path(monkeypatch, "quantum")
        quantum = vector.render_batch(stack, paths)
        _force_path(monkeypatch, "fused")
        assert vector.render_batch(stack, paths) == quantum

    def test_single_render_identical(self, monkeypatch):
        vector = get_vector("fft")
        stack = AudioStack("webkit", "apple-libm", "bluestein", "webkit")
        _force_path(monkeypatch, "quantum")
        quantum = vector.render(stack, None)
        _force_path(monkeypatch, "fused")
        assert vector.render(stack, None) == quantum

    def test_rendered_buffer_bytes_identical(self, monkeypatch):
        """Not just digests: the raw (B, c, n) buffer is byte-equal."""
        def _render(path):
            _force_path(monkeypatch, path)
            ctx = OfflineAudioContext(1, 5000, 44100, batch_size=3)
            osc = ctx.create_oscillator()
            comp = ctx.create_dynamics_compressor()
            osc.connect(comp).connect(ctx.destination)
            osc.start(0.0)
            out = ctx.start_rendering_batch()
            assert ctx.render_path_used == path
            return out
        np.testing.assert_array_equal(_render("fused"), _render("quantum"))


STUDY = dict(user_count=6, iterations=3, vectors=("dc", "fft", "hybrid"),
             seed=13)


class TestRowUniformResults:
    """A row-uniform signal is computed and returned as one row."""

    @staticmethod
    def _render(batch, monkeypatch, path="fused"):
        _force_path(monkeypatch, path)
        ctx = OfflineAudioContext(1, 5000, 44100, batch_size=batch)
        osc = ctx.create_oscillator()
        osc.connect(ctx.create_dynamics_compressor()).connect(ctx.destination)
        osc.start(0.0)
        return ctx

    def test_uniform_batch_returns_one_read_only_row(self, monkeypatch):
        out = self._render(4, monkeypatch).start_rendering_batch()
        assert out.shape == (4, 1, 5000) and out.strides[0] == 0
        assert not out.flags.writeable
        quantum = self._render(4, monkeypatch, "quantum")
        np.testing.assert_array_equal(out, quantum.start_rendering_batch())

    def test_single_render_stays_writable(self, monkeypatch):
        buffer = self._render(1, monkeypatch).start_rendering()
        assert buffer.get_channel_data(0).flags.writeable

    @pytest.mark.parametrize("channels,to", [(3, 1), (1, 2), (3, 2)])
    def test_mix_of_a_broadcast_block_stays_broadcast(self, channels, to):
        row = np.random.default_rng(4).standard_normal((1, channels, 300))
        block = np.broadcast_to(row, (5, channels, 300))
        mixed = mix_to_channels(block, to)
        assert mixed.shape == (5, to, 300) and mixed.strides[0] == 0
        np.testing.assert_array_equal(
            mixed, mix_to_channels(np.ascontiguousarray(block), to))


class TestStudyDatasetAcrossRenderPaths:
    def test_dataset_json_bytes_identical(self, tmp_path, monkeypatch):
        """The serialized study artifact cannot depend on the render path."""
        blobs = set()
        for path in ("quantum", "fused"):
            _force_path(monkeypatch, path)
            dataset = run_study(cache=RenderCache(), workers=0, **STUDY)
            out = tmp_path / f"{path}.json"
            dataset.save(str(out))
            blobs.add(out.read_bytes())
        assert len(blobs) == 1


class TestFusedOrder:
    def _chain(self):
        ctx = OfflineAudioContext(1, 5000, 44100)
        osc = ctx.create_oscillator()
        comp = ctx.create_dynamics_compressor()
        analyser = ctx.create_analyser()
        gain = ctx.create_gain()
        osc.connect(comp).connect(analyser).connect(gain).connect(ctx.destination)
        osc.start(0.0)
        return ctx, osc, comp, analyser, gain

    def test_linear_chain_plans(self):
        ctx, osc, comp, analyser, gain = self._chain()
        assert fused_order(ctx._nodes) == [osc, comp, analyser, gain,
                                           ctx.destination]

    def test_default_picks_fused_for_fusible_graph(self):
        ctx, *_ = self._chain()
        ctx.start_rendering()
        assert ctx.render_path_used == "fused"

    def test_quantum_forced_by_config(self):
        ctx, *_ = self._chain()
        ctx.config = EngineConfig(render_path="quantum")
        ctx.start_rendering()
        assert ctx.render_path_used == "quantum"

    @pytest.mark.parametrize("path", ["warp", "auto"])
    def test_invalid_render_path_rejected(self, path):
        with pytest.raises(ValueError, match="render_path"):
            EngineConfig(render_path=path)

    def test_automation_plans_fused(self):
        """AudioParam automation does not decline the fused path: the
        automated oscillator walks the quantum loop's blocks inside its
        kernel, and the gain curve is evaluated frame by frame either
        way."""
        def build(ctx):
            osc = ctx.create_oscillator()
            osc.type = "square"
            comp = ctx.create_dynamics_compressor()
            analyser = ctx.create_analyser()
            gain = ctx.create_gain()
            osc.frequency.set_value_at_time(300.0, 0.0)
            osc.frequency.exponential_ramp_to_value_at_time(3000.0, 0.1)
            osc.detune.linear_ramp_to_value_at_time(-700.0, 0.08)
            gain.gain.set_target_at_time(0.25, 0.02, 0.01)
            osc.connect(comp).connect(analyser).connect(gain) \
                .connect(ctx.destination)
            osc.start(0.0)
        _assert_fused_equals_quantum(build)

    def test_fan_out_plans_fused(self):
        def build(ctx):
            osc = ctx.create_oscillator()
            g1, g2 = ctx.create_gain(), ctx.create_gain()
            g2.gain.value = -0.25
            osc.connect(g1).connect(ctx.destination)
            osc.connect(g2).connect(ctx.destination)
            osc.start(0.0)
        _assert_fused_equals_quantum(build)

    def test_fan_in_plans_fused(self):
        def build(ctx):
            o1, o2 = ctx.create_oscillator(), ctx.create_oscillator()
            o2.type = "triangle"
            o2.frequency.value = 1500.0
            gain = ctx.create_gain()
            merger = ctx.create_channel_merger(2)
            o1.connect(gain)
            o2.connect(gain)
            o1.connect(merger, input=1)
            gain.connect(merger)
            merger.connect(ctx.create_dynamics_compressor()) \
                .connect(ctx.destination)
            o1.start(0.0)
            o2.start(0.01)
        _assert_fused_equals_quantum(build)

    def test_fallback_is_bit_identical(self):
        """A node type with no whole-buffer kernel declines the fused
        path, and the quantum loop renders the same bytes whatever the
        knob says."""
        outs = []
        for path in RENDER_PATHS:
            ctx = OfflineAudioContext(1, 5000, 44100, batch_size=3,
                                      config=EngineConfig(render_path=path))
            osc = ctx.create_oscillator()
            osc.connect(_BlockOnlyHalver(ctx)).connect(ctx.destination)
            osc.start(0.0)
            assert fused_order(ctx._nodes) is None
            outs.append(ctx.start_rendering_batch())
            assert ctx.render_path_used == "quantum"
        np.testing.assert_array_equal(outs[0], outs[1])

    @pytest.mark.parametrize("name", AUDIO_VECTORS)
    def test_every_audio_vector_plans_fused(self, name):
        """A vector whose graph drops to the B-row quantum loop pays for
        every batch row through the compressor; pin that none does."""
        ctx = OfflineAudioContext(1, RENDER_LENGTH, 44100)
        get_vector(name)._build(ctx)
        assert fused_order(ctx._nodes) is not None


class _BlockOnlyHalver(AudioNode):
    """A node type with only a quantum kernel (``fusible`` stays False)."""

    def process_block(self, inputs, frame0, n):
        return inputs[0] * 0.5


def _assert_fused_equals_quantum(build, batch=3):
    """``build(ctx)`` renders fused, and the fused render is byte-equal to
    the quantum loop's, each path reporting that it ran."""
    outs = []
    for path in RENDER_PATHS:
        ctx = OfflineAudioContext(1, 5000, 44100, batch_size=batch,
                                  config=EngineConfig(render_path=path))
        build(ctx)
        assert fused_order(ctx._nodes) is not None
        outs.append(ctx.start_rendering_batch())
        assert ctx.render_path_used == path
    np.testing.assert_array_equal(outs[0], outs[1])


class TestParamClamp:
    @pytest.mark.parametrize("path", RENDER_PATHS)
    def test_out_of_range_value_clamps_without_events(self, path):
        """A later no-op event must not change the frames before it: the
        value is clamped to [min_value, max_value] with or without one."""
        outs = []
        for extra_event in (False, True):
            ctx = OfflineAudioContext(1, 5000, 44100,
                                      config=EngineConfig(render_path=path))
            osc = ctx.create_oscillator()
            osc.frequency.value = 30000.0  # above Nyquist at 44.1 kHz
            if extra_event:
                osc.frequency.set_value_at_time(30000.0, 1.0)
            osc.connect(ctx.destination)
            osc.start(0.0)
            outs.append(ctx.start_rendering_batch())
        np.testing.assert_array_equal(outs[0], outs[1])


class TestPoolClamp:
    def _tiny(self, monkeypatch, cores, **kw):
        monkeypatch.setattr("repro.population.study.os.cpu_count", lambda: cores)
        recorder = Recorder()
        dataset = run_study(user_count=3, iterations=2, vectors=("dc",),
                            seed=7, cache=RenderCache(), recorder=recorder,
                            **kw)
        return dataset, recorder.counters

    def test_oversubscribed_request_is_clamped(self, monkeypatch):
        _, counters = self._tiny(monkeypatch, cores=1, workers=8)
        # clamped to max(cpu, 2) == 2: 6 workers shaved off
        assert counters.get("pool.workers_clamped") == 6

    def test_explicit_pool_request_never_drops_below_two(self, monkeypatch):
        """workers=2 must stay a real pool even on a 1-core box (hang
        recovery needs a process to interrupt)."""
        _, counters = self._tiny(monkeypatch, cores=1, workers=2)
        assert "pool.workers_clamped" not in counters

    def test_within_budget_request_untouched(self, monkeypatch):
        _, counters = self._tiny(monkeypatch, cores=8, workers=4)
        assert "pool.workers_clamped" not in counters
        assert "pool.fanout_skipped" not in counters

    def test_auto_on_one_core_skips_fanout(self, monkeypatch):
        monkeypatch.setattr("repro.population.study.os.cpu_count", lambda: 1)
        recorder = Recorder()
        run_study(user_count=10, iterations=3,
                  vectors=("dc", "fft", "hybrid"), seed=7,
                  cache=RenderCache(), recorder=recorder, workers=None)
        # enough group jobs to pool, but auto resolved to 1 worker
        assert recorder.counters.get("pool.fanout_skipped") == 1

    def test_clamp_never_changes_the_dataset(self, monkeypatch):
        plain, _ = self._tiny(monkeypatch, cores=8, workers=0)
        clamped, _ = self._tiny(monkeypatch, cores=1, workers=8)
        assert clamped == plain
