"""Randomised differential test of the two render loops.

Every render runs the fused whole-buffer loop, so it must reproduce the
128-frame quantum loop (``_render_quantum``) byte for byte on any
acyclic graph, not only on the seven vectors' graphs. Hypothesis draws
the graph — 1-3 oscillators of any type (a ``PeriodicWave`` included),
merger or gain fan-in with several sources on one port, fan-out taps to
the destination, automation on ``frequency``, ``detune`` and ``gain``,
an optional ScriptProcessor — plus a platform stack and the readout
jitter paths. ``HYPOTHESIS_PROFILE=deep`` searches longer (profiles are
registered in the root ``conftest.py``).
"""
import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from repro.platform import AudioStack, default_stack_pool
from repro.platform.jitter import JitterPath
from repro.vectors.am import _am_script
from repro.webaudio import OfflineAudioContext, PeriodicWave

_STACKS = sorted({row[0] for row in default_stack_pool()},
                 key=lambda stack: stack.cache_key())
_WAVES = ("sine", "square", "sawtooth", "triangle", "custom")
_KINDS = ("set", "linear")
_TAPS = ("oscillator", "hub", "compressor")


@st.composite
def _param(draw, low, high, duration, zero_ok=False, signed=True):
    """``(value, events)`` for one AudioParam, event times inside (or just
    past) the buffer. One sign per param, and magnitudes between ``low``
    and ``high``."""
    magnitude = st.floats(low, high)
    sign = draw(st.sampled_from((1.0, -1.0) if signed else (1.0,)))
    value = 0.0 if zero_ok and draw(st.booleans()) else sign * draw(magnitude)
    events = tuple(
        (kind, sign * draw(magnitude), draw(_time(duration)))
        for kind in draw(st.lists(st.sampled_from(_KINDS), max_size=3)))
    return value, events


def _time(duration):
    """A time in seconds from the buffer's start to a little past its end."""
    return st.floats(0.0, 1.2).map(lambda fraction: fraction * duration)


@st.composite
def _oscillator(draw, duration):
    wave = draw(st.sampled_from(_WAVES))
    coefficients = None
    if wave == "custom":
        size = draw(st.integers(2, 9))
        coefficient = st.floats(-1.0, 1.0)
        coefficients = tuple(
            tuple(draw(st.lists(coefficient, min_size=size, max_size=size)))
            for _ in range(2))
    # mostly started (an unstarted oscillator renders silence)
    start = (None if draw(st.integers(0, 4)) == 0
             else draw(st.just(0.0) | _time(duration)))
    stop = None
    if start is not None and draw(st.booleans()):
        stop = start + draw(_time(duration))
    return dict(wave=wave, coefficients=coefficients,
                # a non-positive frequency renders silence too
                frequency=draw(_param(1.0, 30000.0, duration, signed=False)),
                detune=draw(_param(1.0, 1200.0, duration, zero_ok=True)),
                start=start, stop=stop)


@st.composite
def render_graphs(draw):
    """One graph spec: oscillators -> hub (merger or gain) -> optional
    ScriptProcessor -> compressor -> analyser -> sink gain -> destination,
    plus fan-out taps from an oscillator, the hub or the compressor
    straight to the destination."""
    stack = draw(st.sampled_from(_STACKS))
    # up to 40 quanta, the last one possibly partial
    length = 128 * draw(st.integers(0, 39)) + draw(st.integers(1, 128))
    duration = length / stack.sample_rate
    oscillators = draw(st.lists(_oscillator(duration), min_size=1,
                                max_size=3))
    # 8 or more merged channels downmix pairwise in a one-frame block
    merger_ports = draw(st.none() | st.integers(1, 16))
    ports = [draw(st.integers(0, (merger_ports or 1) - 1))
             for _ in oscillators]
    jitter = st.none() | st.builds(JitterPath, st.integers(0, 3),
                                   st.booleans(), st.booleans(),
                                   st.booleans())
    return dict(
        stack=stack, channels=draw(st.integers(1, 2)), length=length,
        oscillators=oscillators, merger_ports=merger_ports, ports=ports,
        hub_gain=draw(_param(0.01, 2.0, duration)),
        script=draw(st.booleans()),
        sink_gain=draw(_param(0.01, 2.0, duration)),
        taps=draw(st.lists(st.sampled_from(_TAPS), unique=True)),
        jitters=draw(st.lists(jitter, min_size=1, max_size=4)),
    )


def _automate(param, spec):
    value, events = spec
    param.value = value
    for kind, target, time in events:
        if kind == "set":
            param.set_value_at_time(target, time)
        else:
            param.linear_ramp_to_value_at_time(target, time)


def _build(spec):
    """Build ``spec`` in a fresh context; returns the context and its
    analyser."""
    stack = spec["stack"]
    ctx = OfflineAudioContext(spec["channels"], spec["length"],
                              stack.sample_rate, config=stack.realize())
    oscillators = []
    for osc_spec in spec["oscillators"]:
        osc = ctx.create_oscillator()
        if osc_spec["wave"] == "custom":
            osc.set_periodic_wave(PeriodicWave(*osc_spec["coefficients"]))
        else:
            osc.type = osc_spec["wave"]
        _automate(osc.frequency, osc_spec["frequency"])
        _automate(osc.detune, osc_spec["detune"])
        if osc_spec["start"] is not None:
            osc.start(osc_spec["start"])
        if osc_spec["stop"] is not None:
            osc.stop(osc_spec["stop"])
        oscillators.append(osc)

    if spec["merger_ports"] is None:
        hub = ctx.create_gain()
        _automate(hub.gain, spec["hub_gain"])
    else:
        hub = ctx.create_channel_merger(spec["merger_ports"])
    for osc, port in zip(oscillators, spec["ports"]):
        osc.connect(hub, input=port)
    node = hub
    if spec["script"]:
        node = node.connect(ctx.create_script_processor(256, _am_script))
    compressor = node.connect(ctx.create_dynamics_compressor())
    analyser = compressor.connect(ctx.create_analyser())
    sink = analyser.connect(ctx.create_gain())
    _automate(sink.gain, spec["sink_gain"])
    sink.connect(ctx.destination)
    taps = dict(oscillator=oscillators[0], hub=hub, compressor=compressor)
    for tap in spec["taps"]:
        taps[tap].connect(ctx.destination)
    return ctx, analyser


def _tone(wave, frequency, detune=0.0):
    return dict(wave=wave, coefficients=None, frequency=(frequency, ()),
                detune=(detune, ()), start=0.0, stop=None)


#: a length of 128k + 1 ends in a one-frame block, whose (harmonics, 1)
#: and (channels, 1) sums NumPy reduces pairwise rather than in order
_ONE_FRAME_TAIL = dict(
    stack=AudioStack("blink", "apple-libm", "numpy", "blink", 44100),
    channels=1, length=129, oscillators=[_tone("square", 1.0, 2.0)],
    merger_ports=None, ports=[0], hub_gain=(1.0, ()), script=False,
    sink_gain=(1.0, ()), taps=[], jitters=[None])


#: an automated oscillator whose detune is non-zero in some blocks only
#: and whose harmonic count falls from 7 to 2 along a frequency ramp, on
#: a math backend whose pow(2, 0) is not 1
_DETUNED_SWEEP = dict(
    _ONE_FRAME_TAIL, length=5000,
    oscillators=[dict(
        wave="triangle", coefficients=None, start=0.0, stop=None,
        frequency=(3000.0, (("linear", 9000.0, 5000 / 44100),)),
        detune=(0.0, (("set", 40.0, 1000 / 44100),
                      ("set", 0.0, 2600 / 44100))))])


@given(render_graphs())
@example(_ONE_FRAME_TAIL)
@example(_DETUNED_SWEEP)
@example(dict(_DETUNED_SWEEP, length=20 * 128 + 1,
              oscillators=[dict(_DETUNED_SWEEP["oscillators"][0],
                                wave="custom",
                                coefficients=((0.0,) * 9, (0.0, 1.0, -0.5,
                                                           0.25, 0.1, 0.3,
                                                           -0.2, 0.05, 0.7)))]))
@example(dict(_ONE_FRAME_TAIL, merger_ports=9, ports=[1, 4, 7],
              oscillators=[_tone("sine", 733.0), _tone("sine", 2911.0),
                           _tone("sine", 9001.0)]))
def test_fused_render_equals_quantum_loop(spec):
    outputs = {}
    for loop in ("fused", "quantum"):
        ctx, analyser = _build(spec)
        if loop == "fused":
            rendered = ctx.start_rendering()
            buffer = np.stack([rendered.get_channel_data(c)
                               for c in range(rendered.number_of_channels)])
        else:
            buffer = ctx._render_quantum()
        readout = analyser.get_float_frequency_data(spec["jitters"])
        outputs[loop] = (buffer.tobytes(), readout.tobytes())
    assert outputs["fused"] == outputs["quantum"]
