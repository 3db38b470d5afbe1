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
from .area import AreaReport, area_report, resource_counts, weighted_area
from .delay import DelayReport, PathResult, delay_report
from .devices import BUILTIN_DEVICES, DeviceProfile, resolve_device
from .formats import (
    ParseError,
    VersionError,
    parse_netlist,
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
    validate,
)
from .power import (
    ActivityProfile,
    PowerModel,
    PowerScore,
    average_power_uw,
    power_score,
)
from .report import (
    CombinedReport,
    ReportMetadata,
    build_report,
    canonical_json,
    render_csv,
    render_structured,
    render_text,
)

__all__ = [
    "__version__",
    "ActivityProfile",
    "AnnotationError",
    "AreaReport",
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
    "area_report",
    "average_power_uw",
    "build_registry",
    "build_report",
    "canonical_json",
    "delay_report",
    "extract_block_label",
    "group_to_depth",
    "parse_netlist",
    "parse_profile",
    "power_score",
    "render_csv",
    "render_structured",
    "render_text",
    "resolve_device",
    "resource_counts",
    "serialize_netlist",
    "serialize_profile",
    "validate",
    "weighted_area",
]
