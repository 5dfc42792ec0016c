"""Compilation manifest and the downstream template-parameter file.

The manifest is the pipeline's self-contained output: re-running the
compiler on the same inputs and seed reproduces it byte for byte. The
template-parameter file is the flat ``key=value`` subset a synthesizable
template system consumes. ``vitmap emit`` re-checks a manifest before it
writes that file: the ``hardware`` and ``tiles`` blocks must hold exactly
their fields, and the board and tiles must pass ``vitmap.hw``'s checks. Any
failure raises ``SchemaError`` or ``InfeasibleTilesError``, which the
command reports as exit code 6 without writing the file.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, fields

from .errors import InfeasibleTilesError, SchemaError
from .hw import HARDWARE_FIELDS, HardwareSpec, TileParams, validate_tiles

MANIFEST_VERSION = 2


def fingerprint(doc: dict) -> str:
    """Stable content hash of an input document."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


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
        "model_fingerprint": fingerprint(model_doc),
        "model": model_doc,
        "hardware": {f: getattr(hw, f) for f in HARDWARE_FIELDS},
        "tiles": asdict(tiles),
        "latency": {
            "total_s": graph_cost.total_latency_s,
            "matmul_s": graph_cost.matmul_latency_s,
            "nonlinear_s": graph_cost.nonlinear_latency_s,
            "per_node": [[node_id, lat] for node_id, lat in graph_cost.per_node],
        },
        "schedules": schedules,
        "approx": approx_summary,
        "search": search_meta,
        "compile": compile_meta,
    }


def manifest_to_json(manifest: dict) -> str:
    return json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def _block(manifest: Mapping, key: str, names) -> Mapping:
    """``manifest[key]``, checked to be an object with exactly the fields ``names``."""
    block = manifest.get(key)
    if not isinstance(block, Mapping):
        raise SchemaError(f"manifest {key!r} must be a JSON object, got {block!r}")
    missing = [f for f in names if f not in block]
    unknown = sorted(set(block) - set(names))
    if missing or unknown:
        raise SchemaError(f"manifest {key!r} block: missing fields {missing}, "
                          f"unknown fields {unknown}")
    return block


def template_params_from_manifest(manifest: dict) -> TemplateParams:
    """The template parameters of a manifest whose board and tiles ``hw`` accepts."""
    if not isinstance(manifest, Mapping):
        raise SchemaError("manifest must be a JSON object")
    hw = HardwareSpec(**_block(manifest, "hardware", HARDWARE_FIELDS))
    tiles = TileParams(**_block(manifest, "tiles", [f.name for f in fields(TileParams)]))
    verdict = validate_tiles(tiles, hw)
    if not verdict:
        raise InfeasibleTilesError(verdict.violations)
    return TemplateParams(*tiles.astuple(), bn=hw.ddr_banks, kernels=hw.num_kernels,
                          lop=hw.lop, pack_factor=hw.pack_factor)


def emit_template_params(params: TemplateParams) -> str:
    """Flat key=value file, stable key order."""
    return "".join(f"{k}={v}\n" for k, v in asdict(params).items())
