"""Simulated measurement devices: profiles, roofline engine, noise model,
measurement exceptions, and seeded fault injection."""

from .errors import MeasurementError, MeasurementTimeout
from .profiles import DEVICE_NAMES, DEVICES, DeviceProfile, device_by_name
from .roofline import compute_efficiency, layer_time
from .simulator import SimulatedDevice
from .faults import FaultPlan, FaultyDevice

__all__ = [
    "DeviceProfile",
    "DEVICES",
    "DEVICE_NAMES",
    "device_by_name",
    "layer_time",
    "compute_efficiency",
    "SimulatedDevice",
    "MeasurementError",
    "MeasurementTimeout",
    "FaultPlan",
    "FaultyDevice",
]
