"""Built-in device profiles and the custom device file loader.

A device profile is a named coefficient set: per-kind cell logic delays (used
when generating fixtures or when --override-delays rewrites a netlist), an
area weight table, and a power model, each naming every kind and checked when
``area_report`` or ``power_score`` weighs it. The built-in coefficients are
written only here, and only ``resolve_device`` reads them.
Built-ins differ only in LUT speed; LUT_k scales as LUT6 * k / 6, rounded
half-up in integer picoseconds. The weights and power model are deliberately
shared across built-ins so scores stay comparable within one device and delay
scaling stays the only difference between them.

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

from .formats import parse_coefficients, read_file
from .model import BlockscopeError, CellKind, Netlist
from .power import PowerModel

_LUT6_PS = {"spartan6": 200, "virtex5": 80, "virtex7": 40}

_WEIGHTS = {
    "LUT1": 1.0,
    "LUT2": 1.0,
    "LUT3": 1.0,
    "LUT4": 1.0,
    "LUT5": 1.0,
    "LUT6": 1.0,
    "FF": 1.0,
    "CLK": 0.0,
    "IN": 0.0,
    "OUT": 0.0,
    "MEM_IN": 0.0,
}

_STATIC_UW = {
    "LUT1": 0.1,
    "LUT2": 0.2,
    "LUT3": 0.3,
    "LUT4": 0.4,
    "LUT5": 0.5,
    "LUT6": 0.6,
    "FF": 0.2,
    "CLK": 0.0,
    "IN": 0.0,
    "OUT": 0.0,
    "MEM_IN": 0.0,
}

_DYNAMIC_PJ = {
    "LUT1": 0.5,
    "LUT2": 1.0,
    "LUT3": 1.5,
    "LUT4": 2.0,
    "LUT5": 2.5,
    "LUT6": 3.0,
    "FF": 1.0,
    "CLK": 0.0,
    "IN": 0.0,
    "OUT": 0.0,
    "MEM_IN": 0.0,
}

_FREQUENCY_HZ = 100_000_000.0


def _scaled_delays(lut6_ps: int) -> dict[CellKind, int]:
    delays = {kind: 0 for kind in CellKind}
    for k in range(1, 7):
        delays[CellKind[f"LUT{k}"]] = (lut6_ps * k + 3) // 6  # round half-up
    return delays


class DeviceProfile(NamedTuple):
    name: str
    logic_delays: dict[CellKind, int]
    weights: dict[str, float]
    power: PowerModel

    def apply_delays(self, netlist: Netlist) -> Netlist:
        """Netlist with every cell's logic delay replaced by this profile's."""
        return netlist.with_logic_delays(self.logic_delays)


BUILTIN_DEVICES = tuple(sorted(_LUT6_PS))


def resolve_device(name_or_path: str) -> DeviceProfile:
    """Built-in name, or a path to a custom device profile file; every call builds new tables."""
    if name_or_path in _LUT6_PS:
        return DeviceProfile(name_or_path, _scaled_delays(_LUT6_PS[name_or_path]), dict(_WEIGHTS),
                             PowerModel(dict(_STATIC_UW), dict(_DYNAMIC_PJ), _FREQUENCY_HZ))
    path = Path(name_or_path)
    if not name_or_path or not path.exists():  # Path("") is the working directory
        raise BlockscopeError(
            f"unknown device profile {name_or_path!r}; built-ins: {', '.join(BUILTIN_DEVICES)}"
        )
    base = resolve_device("virtex7")  # new tables, so the file's delay and weight lines fill them in place
    power = parse_coefficients(read_file(path), base.power, (base.logic_delays, base.weights))
    return DeviceProfile(path.stem, base.logic_delays, base.weights, power)
