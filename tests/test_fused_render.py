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

BACKENDS = sorted(FFT_BACKENDS)


def _paths_under_load(rng, count):
    """Heavy-load jitter paths: duplicates dominate, so batches exercise
    ``render_batch``'s dedup alongside genuinely distinct paths."""
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
        """Not just digests: the raw (channels, n) buffer is byte-equal."""
        def build(ctx):
            osc = ctx.create_oscillator()
            comp = ctx.create_dynamics_compressor()
            osc.connect(comp).connect(ctx.destination)
            osc.start(0.0)
        _assert_fused_equals_quantum(build)


STUDY = dict(user_count=6, iterations=3, vectors=("dc", "fft", "hybrid"),
             seed=13)


class TestRenderedBuffer:
    def test_single_render_stays_writable(self):
        ctx = OfflineAudioContext(1, 5000, 44100)
        osc = ctx.create_oscillator()
        osc.connect(ctx.create_dynamics_compressor()).connect(ctx.destination)
        osc.start(0.0)
        assert ctx.start_rendering().get_channel_data(0).flags.writeable


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
            osc.frequency.linear_ramp_to_value_at_time(3000.0, 0.1)
            osc.detune.linear_ramp_to_value_at_time(-700.0, 0.08)
            gain.gain.set_value_at_time(1.0, 0.02)
            gain.gain.linear_ramp_to_value_at_time(0.25, 0.05)
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


def _channels(buffer):
    """A rendered ``AudioBuffer`` as one (channels, length) array."""
    return np.stack([buffer.get_channel_data(c)
                     for c in range(buffer.number_of_channels)])


def _assert_fused_equals_quantum(build):
    """The graph ``build(ctx)`` makes renders byte-equal buffers through
    the fused loop (``start_rendering``) and the quantum loop."""
    fused = OfflineAudioContext(1, 5000, 44100)
    quantum = OfflineAudioContext(1, 5000, 44100)
    build(fused)
    build(quantum)
    np.testing.assert_array_equal(_channels(fused.start_rendering()),
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
            outs.append(_channels(ctx.start_rendering()) if path == "fused"
                        else ctx._render_quantum())
        np.testing.assert_array_equal(outs[0], outs[1])
