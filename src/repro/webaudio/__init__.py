"""repro.webaudio — a from-scratch, offline Web Audio API rendering engine.

Nodes render as whole-block NumPy operations: a render runs each node
once over the entire buffer (the fused loop), and the 128-frame quantum
loop that tests compare it with runs them block by block; there are no
per-sample Python loops anywhere on the render path.

ENGINE_VERSION is folded into every platform stack's cache key: any change
to a node's DSP must bump it, which invalidates every equivalence-class
render cache at once (see DESIGN.md, "Performance architecture").
"""

ENGINE_VERSION = "1"
RENDER_QUANTUM_FRAMES = 128

from .config import EngineConfig, CompressorParams, NumpyMath  # noqa: E402
from .buffer import AudioBuffer  # noqa: E402
from .context import OfflineAudioContext  # noqa: E402
from .oscillator import OscillatorNode, PeriodicWave  # noqa: E402
from .gain import GainNode  # noqa: E402
from .merger import ChannelMergerNode  # noqa: E402
from .compressor import DynamicsCompressorNode  # noqa: E402
from .analyser import AnalyserNode  # noqa: E402
from .script_processor import ScriptProcessorNode  # noqa: E402
from . import fft  # noqa: E402

__all__ = [
    "ENGINE_VERSION",
    "RENDER_QUANTUM_FRAMES",
    "EngineConfig",
    "CompressorParams",
    "NumpyMath",
    "AudioBuffer",
    "OfflineAudioContext",
    "OscillatorNode",
    "PeriodicWave",
    "GainNode",
    "ChannelMergerNode",
    "DynamicsCompressorNode",
    "AnalyserNode",
    "ScriptProcessorNode",
    "fft",
]
