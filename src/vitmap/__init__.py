"""vitmap: compile transformer models onto a tiled multi-kernel accelerator.

The pipeline lowers a model description to an operation DAG, searches the
tile/parallelism design space with an analytical latency model, plans
multi-bank memory layouts and static schedules, and validates
hardware-friendly non-linear approximations against exact oracles.
"""

__version__ = "0.1.0"

from .errors import (
    EmptySearchSpaceError,
    InfeasibleTilesError,
    SchemaError,
    StageError,
    VitmapError,
)
from .hw import (
    CostBreakdown,
    HardwareSpec,
    TileParams,
    compute_pm,
    graph_latency,
    kernel_factor,
    matmul_cost,
    validate_tiles,
)
from .model_ir import (
    Dag,
    ModelSpec,
    OpKind,
    OpNode,
    analyze,
    batch_expand,
    build_dag,
    fuse_qkv,
    parse_model,
)

__all__ = [
    "__version__",
    "VitmapError", "SchemaError", "InfeasibleTilesError",
    "EmptySearchSpaceError", "StageError",
    "ModelSpec", "OpNode", "OpKind", "Dag",
    "parse_model", "build_dag", "fuse_qkv", "batch_expand", "analyze",
    "HardwareSpec", "TileParams", "CostBreakdown",
    "compute_pm", "kernel_factor", "matmul_cost", "graph_latency",
    "validate_tiles",
]
