"""blockscope: block-level area, delay, and power analysis for FPGA netlists
whose cell names carry design-block annotations."""

__version__ = "0.1.0"

from .annotation import (
    AnnotationError,
    BlockLabel,
    BlockRegistry,
    build_registry,
    extract_block_label,
    group_to_depth,
)
from .area import AreaReport, AreaWeights, area_report, resource_counts, weighted_area
from .delay import DelayReport, PathResult, WeightingMode, delay_report, longest_path
from .devices import BUILTIN_DEVICES, DeviceProfile, builtin_device, resolve_device
from .formats import (
    ParseError,
    VersionError,
    parse_netlist,
    parse_power_model,
    parse_profile,
    serialize_netlist,
    serialize_profile,
)
from .model import (
    BlockscopeError,
    Cell,
    CellKind,
    Net,
    Netlist,
    ValidationError,
    topological_order,
    validate,
)
from .power import (
    ActivityProfile,
    PowerModel,
    PowerScore,
    active_cycles,
    average_power_uw,
    power_score,
    switching_factor,
)
from .report import (
    CombinedReport,
    ReportMetadata,
    build_report,
    canonical_json,
    parse_structured,
    render_csv,
    render_structured,
    render_text,
)

__all__ = [
    "__version__",
    "ActivityProfile",
    "AnnotationError",
    "AreaReport",
    "AreaWeights",
    "BUILTIN_DEVICES",
    "BlockLabel",
    "BlockRegistry",
    "BlockscopeError",
    "Cell",
    "CellKind",
    "CombinedReport",
    "DelayReport",
    "DeviceProfile",
    "Net",
    "Netlist",
    "ParseError",
    "PathResult",
    "PowerModel",
    "PowerScore",
    "ReportMetadata",
    "ValidationError",
    "VersionError",
    "WeightingMode",
    "active_cycles",
    "area_report",
    "average_power_uw",
    "build_registry",
    "build_report",
    "builtin_device",
    "canonical_json",
    "delay_report",
    "extract_block_label",
    "group_to_depth",
    "longest_path",
    "parse_netlist",
    "parse_power_model",
    "parse_profile",
    "parse_structured",
    "power_score",
    "render_csv",
    "render_structured",
    "render_text",
    "resolve_device",
    "resource_counts",
    "serialize_netlist",
    "serialize_profile",
    "switching_factor",
    "topological_order",
    "validate",
    "weighted_area",
]
