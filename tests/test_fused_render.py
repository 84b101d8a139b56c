"""Fused render loop contracts.

Every render runs the fused whole-buffer loop, and it must be
*bit-identical* to the 128-frame quantum loop (``_render_quantum``, the
reference semantics) for every vector, FFT backend, and batch
composition — same eFP digests, same StudyDataset bytes. These tests pin
that invariant by rendering each case through both loops.
"""
import numpy as np
import pytest

from repro import RenderCache, run_study
from repro.platform import AudioStack
from repro.platform.jitter import sample_path, sample_repertoire
from repro.vectors import AUDIO_VECTORS, get_vector
from repro.webaudio import OfflineAudioContext
from repro.webaudio.fft import FFT_BACKENDS
from repro.webaudio.graph import topological_order
from repro.webaudio.node import mix_to_channels

BACKENDS = sorted(FFT_BACKENDS)


def _paths_under_load(rng, count):
    """Heavy-load jitter paths: duplicates dominate, so batches exercise
    the analyser's readout dedup alongside genuinely distinct rows."""
    repertoire = sample_repertoire(rng, 0.9)
    return [sample_path(rng, 0.9, repertoire) for _ in range(count)]


def _on_quantum_loop(render):
    """``render()`` with every context rendering through the quantum
    reference loop instead of the fused one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OfflineAudioContext, "_render_fused",
                      lambda ctx, order: ctx._render_quantum())
        return render()


class TestFusedMatchesQuantum:
    """Every digest the fused loop produces equals the quantum loop's."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", sorted(AUDIO_VECTORS))
    def test_batched_digests_identical(self, name, backend):
        vector = get_vector(name)
        stack = AudioStack("blink", "ucrt", backend, "blink")
        rng = np.random.default_rng(hash((name, backend, "fused")) % 2**32)
        paths = _paths_under_load(rng, 7)
        quantum = _on_quantum_loop(lambda: vector.render_batch(stack, paths))
        assert vector.render_batch(stack, paths) == quantum

    @pytest.mark.parametrize("batch", [1, 7, 256])
    def test_every_batch_size(self, batch):
        vector = get_vector("hybrid")
        stack = AudioStack("gecko", "glibc", "splitradix", "gecko", 48000)
        rng = np.random.default_rng(batch)
        paths = _paths_under_load(rng, batch)
        quantum = _on_quantum_loop(lambda: vector.render_batch(stack, paths))
        assert vector.render_batch(stack, paths) == quantum

    def test_single_render_identical(self):
        vector = get_vector("fft")
        stack = AudioStack("webkit", "apple-libm", "bluestein", "webkit")
        quantum = _on_quantum_loop(lambda: vector.render(stack, None))
        assert vector.render(stack, None) == quantum

    def test_rendered_buffer_bytes_identical(self):
        """Not just digests: the raw (B, c, n) buffer is byte-equal."""
        def build(ctx):
            osc = ctx.create_oscillator()
            comp = ctx.create_dynamics_compressor()
            osc.connect(comp).connect(ctx.destination)
            osc.start(0.0)
        _assert_fused_equals_quantum(build)


STUDY = dict(user_count=6, iterations=3, vectors=("dc", "fft", "hybrid"),
             seed=13)


class TestRowUniformResults:
    """A row-uniform signal is computed and returned as one row."""

    @staticmethod
    def _render(batch):
        ctx = OfflineAudioContext(1, 5000, 44100, batch_size=batch)
        osc = ctx.create_oscillator()
        osc.connect(ctx.create_dynamics_compressor()).connect(ctx.destination)
        osc.start(0.0)
        return ctx

    def test_uniform_batch_returns_one_read_only_row(self):
        out = self._render(4).start_rendering_batch()
        assert out.shape == (4, 1, 5000) and out.strides[0] == 0
        assert not out.flags.writeable
        np.testing.assert_array_equal(out, self._render(4)._render_quantum())

    def test_single_render_stays_writable(self):
        buffer = self._render(1).start_rendering()
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
    def test_dataset_json_bytes_identical(self, tmp_path):
        """The serialized study artifact cannot depend on the render loop."""
        def study():
            return run_study(cache=RenderCache(), workers=0, **STUDY)
        blobs = set()
        for loop, dataset in (("quantum", _on_quantum_loop(study)),
                              ("fused", study())):
            out = tmp_path / f"{loop}.json"
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
        assert topological_order(ctx._nodes) == [osc, comp, analyser, gain,
                                                 ctx.destination]

    def test_automation_plans_fused(self):
        """AudioParam automation renders fused, byte-equal to the quantum
        loop: the automated oscillator walks the quantum loop's blocks
        inside its kernel, and the gain curve is evaluated frame by frame
        either way."""
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


def _assert_fused_equals_quantum(build, batch=3):
    """The graph ``build(ctx)`` makes renders byte-equal buffers through
    the fused loop (``start_rendering_batch``) and the quantum loop."""
    fused = OfflineAudioContext(1, 5000, 44100, batch_size=batch)
    quantum = OfflineAudioContext(1, 5000, 44100, batch_size=batch)
    build(fused)
    build(quantum)
    np.testing.assert_array_equal(fused.start_rendering_batch(),
                                  quantum._render_quantum())


class TestParamClamp:
    @pytest.mark.parametrize("path", ["fused", "quantum"])
    def test_out_of_range_value_clamps_without_events(self, path):
        """A later no-op event must not change the frames before it: the
        value is clamped to [min_value, max_value] with or without one."""
        outs = []
        for extra_event in (False, True):
            ctx = OfflineAudioContext(1, 5000, 44100)
            osc = ctx.create_oscillator()
            osc.frequency.value = 30000.0  # above Nyquist at 44.1 kHz
            if extra_event:
                osc.frequency.set_value_at_time(30000.0, 1.0)
            osc.connect(ctx.destination)
            osc.start(0.0)
            outs.append(ctx.start_rendering_batch() if path == "fused"
                        else ctx._render_quantum())
        np.testing.assert_array_equal(outs[0], outs[1])
