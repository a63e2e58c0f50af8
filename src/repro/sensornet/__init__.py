"""Energy-budgeted fog/mist sensing substrate (paper ref [55]).

A node that cannot afford to sample every phenomenon must direct its
limited sensing budget itself.  Built directly on the framework's
sensors, knowledge base and attention policies; experiment E7 sweeps the
budget and compares attention strategies.
"""

from .events import (DeadlineAttention, SpikeChannelSpec, SpikeField,
                     mixed_spike_specs, run_detection)
from .field import ChannelField, ChannelSpec, mixed_channel_specs
from .node import SensingNode, SensingRunResult, SensingStepRecord

__all__ = [
    "DeadlineAttention", "SpikeChannelSpec", "SpikeField",
    "mixed_spike_specs", "run_detection",
    "ChannelField", "ChannelSpec", "mixed_channel_specs",
    "SensingNode", "SensingRunResult", "SensingStepRecord",
]
