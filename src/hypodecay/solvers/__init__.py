from .euler import EulerSpec, simulate_euler
from .heat import heat_solve
from .linear import LinearSim, simulate_linear
from .psystem import PSystemSpec, simulate_psystem
from .waves import (
    LinearWaveMonitor,
    LogWaveMonitor,
    WaveWeightSpec,
    default_offset,
    linear_wave_monitor,
)

__all__ = [
    "EulerSpec",
    "LinearSim",
    "LinearWaveMonitor",
    "LogWaveMonitor",
    "PSystemSpec",
    "WaveWeightSpec",
    "default_offset",
    "heat_solve",
    "linear_wave_monitor",
    "simulate_euler",
    "simulate_linear",
    "simulate_psystem",
]
