"""Compilation manifest and the downstream template-parameter file.

The manifest is the pipeline's self-contained output: re-running the
compiler on the same inputs and seed reproduces it byte for byte. The
template-parameter file is the flat ``key=value`` subset a synthesizable
template system consumes. ``vitmap emit`` re-checks a manifest before it
writes that file: the ``hardware`` and ``tiles`` blocks must pass
``vitmap.hw``'s rule tables and the board and tiles its checks. Any failure
raises ``SchemaError`` or ``InfeasibleTilesError``, which the command
reports as exit code 6 without writing the file.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .errors import InfeasibleTilesError, check, json_object, json_text, read
from .hw import HARDWARE_FIELDS, TILE_FIELDS, HardwareSpec, TileParams, validate_tiles

MANIFEST_VERSION = 3


@dataclass(frozen=True)
class TemplateParams:
    """Scalar parameters handed to the synthesizable-template stage."""

    pn: int
    pm: int
    tn: int
    tm: int
    bn: int
    kernels: int
    lop: int
    pack_factor: int


def build_manifest(*, model_doc: dict, hw: HardwareSpec, tiles: TileParams,
                   graph_cost, schedules: dict, approx_summary: dict,
                   seed: int, tool_version: str, compile_meta: dict,
                   search_meta: dict) -> dict:
    """Assemble the manifest document (plain JSON-ready dict).

    ``schedules`` maps each op kind to its closed-form schedule descriptor
    document; ``compile_meta`` records the inputs the compile actually used.
    """
    return {
        "manifest_version": MANIFEST_VERSION,
        "tool_version": tool_version,
        "seed": seed,
        "model": model_doc,
        "hardware": {f: getattr(hw, f) for f in HARDWARE_FIELDS},
        "tiles": asdict(tiles),
        "latency": {
            "total_s": graph_cost.total_latency_s,
            "matmul_s": graph_cost.matmul_latency_s,
            "nonlinear_s": graph_cost.nonlinear_latency_s,
        },
        "schedules": schedules,
        "approx": approx_summary,
        "search": search_meta,
        "compile": compile_meta,
    }


def manifest_to_json(manifest: dict) -> str:
    return json_text(manifest)


def template_params_from_manifest(manifest: dict) -> TemplateParams:
    """The template parameters of a manifest whose board and tiles ``hw`` accepts."""
    manifest = json_object(manifest, "manifest")
    hw = HardwareSpec(**read(manifest.get("hardware"), "manifest 'hardware'", HARDWARE_FIELDS))
    fields = read(manifest.get("tiles"), "manifest 'tiles'", TILE_FIELDS)
    check(fields, TILE_FIELDS)
    tiles = TileParams(**fields)
    verdict = validate_tiles(tiles, hw)
    if not verdict:
        raise InfeasibleTilesError(verdict.violations)
    return TemplateParams(*tiles.astuple(), bn=hw.ddr_banks, kernels=hw.num_kernels,
                          lop=hw.lop, pack_factor=hw.pack_factor)


def emit_template_params(params: TemplateParams) -> str:
    """Flat key=value file, stable key order."""
    return "".join(f"{k}={v}\n" for k, v in asdict(params).items())
