"""Built-in device profiles and the custom device file loader.

A device profile is a named coefficient set: per-kind cell logic delays (used
when generating fixtures or when --override-delays rewrites a netlist), an
area weight table, and a power model. Built-ins differ only in LUT speed;
LUT_k scales as LUT6 * k / 6, rounded half-up in integer picoseconds. The
power model is deliberately shared across built-ins so scores stay comparable
within one device and delay scaling stays the only difference between them.

Custom profile file (header ``blockscope-device v1``), based on virtex7 for
anything unspecified::

    delay <CELL_KIND> <ps>
    weight <RESOURCE_KIND> <w>
    static <RESOURCE_KIND> <uW>
    dynamic <RESOURCE_KIND> <pJ>
    frequency <Hz>
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from .area import AreaWeights
from .formats import parse_coefficients, read_file
from .model import BlockscopeError, CellKind, Netlist
from .power import PowerModel

DEVICE_HEADER = "blockscope-device v1"

_LUT6_PS = {"spartan6": 200, "virtex5": 80, "virtex7": 40}


def _scaled_delays(lut6_ps: int) -> dict[CellKind, int]:
    delays = {kind: 0 for kind in CellKind}
    for k in range(1, 7):
        delays[CellKind[f"LUT{k}"]] = (lut6_ps * k + 3) // 6  # round half-up
    return delays


class DeviceProfile(NamedTuple):
    name: str
    logic_delays: dict[CellKind, int]
    weights: AreaWeights
    power: PowerModel

    def apply_delays(self, netlist: Netlist) -> Netlist:
        """Netlist with every cell's logic delay replaced by this profile's."""
        return netlist.with_logic_delays(self.logic_delays)


BUILTIN_DEVICES = tuple(sorted(_LUT6_PS))


def builtin_device(name: str) -> DeviceProfile:
    if name not in _LUT6_PS:
        raise BlockscopeError(f"unknown device profile {name!r}")
    return DeviceProfile(name, _scaled_delays(_LUT6_PS[name]), AreaWeights(), PowerModel())


def load_device_file(path: Path) -> DeviceProfile:
    base = builtin_device("virtex7")
    delays = dict(base.logic_delays)
    weights = dict(base.weights.weights)
    power = parse_coefficients(
        read_file(path), base.power, header=DEVICE_HEADER, delays=delays, weights=weights
    )
    return DeviceProfile(path.stem, delays, AreaWeights(weights), power)


def resolve_device(name_or_path: str) -> DeviceProfile:
    """Built-in name, or a path to a custom device profile file."""
    if name_or_path in _LUT6_PS:
        return builtin_device(name_or_path)
    path = Path(name_or_path)
    if not name_or_path or not path.exists():  # Path("") is the working directory
        raise BlockscopeError(
            f"unknown device profile {name_or_path!r}; built-ins: {', '.join(BUILTIN_DEVICES)}"
        )
    return load_device_file(path)
