"""Channel-optimized scalar quantization with adaptive loading over a simulated OFDM link.

The pipeline: design quantizers for a unit Gaussian source over bit-flip
channels (quantizer), precompute a grid of them over bit depth and BER target
(library), invert the Gray-QAM BER model into SNR thresholds (modem), draw
frequency-selective channels (channel), jointly pick bit depths, BER target,
modulation orders and powers for one coherence block (allocator), and verify
the distortion targets end to end by Monte Carlo (simulator).
"""

from ._version import __version__
from .allocator import AllocationPlan, LatentStats, optimize_plan, target_distortion
from .channel import ChannelRealization, TapProfile, exponential_pdp, realize_channel
from .gaussian import q_function, std_normal_cdf, std_normal_pdf
from .library import QuantizerLibrary, build_library, load_library, save_library, sigma_max
from .modem import ber_approx, demodulate, modulate, snr_threshold
from .quantizer import (
    DesignConfig,
    ScalarQuantizer,
    analytic_distortion,
    dequantize,
    design_channel_optimized,
    design_lloyd_max,
    quantize,
)
from .simulator import ExperimentConfig, SyntheticSourceConfig, run_experiment, run_trial

__all__ = [
    "__version__",
    "AllocationPlan",
    "LatentStats",
    "optimize_plan",
    "target_distortion",
    "ChannelRealization",
    "TapProfile",
    "exponential_pdp",
    "realize_channel",
    "q_function",
    "std_normal_cdf",
    "std_normal_pdf",
    "QuantizerLibrary",
    "build_library",
    "load_library",
    "save_library",
    "sigma_max",
    "ber_approx",
    "demodulate",
    "modulate",
    "snr_threshold",
    "DesignConfig",
    "ScalarQuantizer",
    "analytic_distortion",
    "dequantize",
    "design_channel_optimized",
    "design_lloyd_max",
    "quantize",
    "ExperimentConfig",
    "SyntheticSourceConfig",
    "run_experiment",
    "run_trial",
]
