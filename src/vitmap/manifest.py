"""Compilation manifest and the downstream template-parameter file.

The manifest is the pipeline's self-contained output: re-running the
compiler on the same inputs and seed reproduces it byte for byte. The
template-parameter file is the flat ``key=value`` subset a synthesizable
template system consumes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .errors import SchemaError
from .hw import HardwareSpec, TileParams, compute_pm

MANIFEST_VERSION = 2

_TEMPLATE_KEYS = ("pn", "pm", "tn", "tm", "bn", "kernels", "lop", "pack_factor")


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

    def validate(self) -> None:
        if any(getattr(self, k) < 1 for k in _TEMPLATE_KEYS):
            raise SchemaError("template parameters must all be >= 1")
        if not self.pn * self.pm < self.tm:
            raise SchemaError(f"inconsistent template params: pn {self.pn} not < tm/pm "
                              f"= {self.tm}/{self.pm}")
        if self.tm % self.pm != 0:
            raise SchemaError(f"inconsistent template params: tm {self.tm} "
                              f"not a multiple of pm {self.pm}")
        if self.pack_factor != self.pm:
            raise SchemaError("pack_factor must equal pm (both are floor(AXI/(2*DW)))")


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
        "hardware": {
            "name": hw.name,
            "axi_width_bits": hw.axi_width_bits,
            "data_width_bits": hw.data_width_bits,
            "onchip_capacity_elems": hw.onchip_capacity_elems,
            "ddr_banks": hw.ddr_banks,
            "num_kernels": hw.num_kernels,
            "frequency_hz": hw.frequency_hz,
            "lop": hw.lop,
        },
        "tiles": {"pn": tiles.pn, "pm": tiles.pm, "tn": tiles.tn, "tm": tiles.tm},
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


def template_params_from_manifest(manifest: dict) -> TemplateParams:
    tiles = manifest["tiles"]
    hw = manifest["hardware"]
    params = TemplateParams(
        pn=tiles["pn"], pm=tiles["pm"], tn=tiles["tn"], tm=tiles["tm"],
        bn=hw["ddr_banks"], kernels=hw["num_kernels"], lop=hw["lop"],
        pack_factor=compute_pm(hw["axi_width_bits"], hw["data_width_bits"]),
    )
    params.validate()
    return params


def emit_template_params(params: TemplateParams) -> str:
    """Flat key=value file, stable key order."""
    params.validate()
    return "".join(f"{k}={getattr(params, k)}\n" for k in _TEMPLATE_KEYS)


def parse_template_params(text: str) -> TemplateParams:
    values = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, raw = line.partition("=")
        values[key.strip()] = int(raw.strip())
    missing = [k for k in _TEMPLATE_KEYS if k not in values]
    if missing:
        raise SchemaError(f"template parameter file missing keys: {missing}")
    params = TemplateParams(**{k: values[k] for k in _TEMPLATE_KEYS})
    params.validate()
    return params
