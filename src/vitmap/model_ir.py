"""Transformer model IR: typed operation DAG plus analysis and rewrites.

A model description (JSON) is parsed into a :class:`ModelSpec`, expanded into
a :class:`Dag` of shape-annotated operation nodes, and optionally rewritten
(QKV weight fusion, batch expansion) before cost modeling and scheduling.

Head-grouped operations (the per-head score matmul, softmax, and the
attention-value matmul) are represented as a single node carrying the head
count; downstream consumers expand heads when they need to.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional

from .errors import EXTENT, EXTENT_MAX, STRING, SchemaError, check, csv_text, json_text, read

log = logging.getLogger(__name__)

MODEL_SCHEMA_VERSION = 1

# Default pixels per image patch (16x16 RGB) feeding the embedding matmul.
DEFAULT_PATCH_PIXELS = 16 * 16 * 3
DEFAULT_NUM_CLASSES = 1000

# A model document's required and optional fields; num_layers sizes the DAG.
MODEL_FIELDS = {"name": STRING, "embed_dim": EXTENT, "num_heads": EXTENT,
                "num_layers": ("int", 1, 1024), "num_tokens": EXTENT}
MODEL_OPTIONAL = {"mlp_ratio": ("number", 0, EXTENT_MAX), "batch": EXTENT,
                  "data_width_bits": EXTENT, "patch_pixels": EXTENT, "num_classes": EXTENT}


class OpKind(str, Enum):
    MATMUL = "MatMul"
    LAYERNORM = "LayerNorm"
    SOFTMAX = "Softmax"
    GELU = "Gelu"
    ADD = "Add"
    SPLIT = "Split"
    CONCAT = "Concat"


@dataclass(frozen=True)
class ModelSpec:
    """Validated high-level description of an encoder-stack model."""

    name: str
    embed_dim: int
    num_heads: int
    num_layers: int
    num_tokens: int
    mlp_ratio: float = 4.0
    batch: int = 1
    data_width_bits: int = 16
    patch_pixels: int = DEFAULT_PATCH_PIXELS
    num_classes: int = DEFAULT_NUM_CLASSES

    def __post_init__(self):
        check(vars(self), MODEL_FIELDS, MODEL_OPTIONAL)
        if self.embed_dim % self.num_heads != 0:
            raise SchemaError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )
        hidden = self.embed_dim * self.mlp_ratio
        if abs(hidden - round(hidden)) > 1e-9 or not 1 <= round(hidden) <= EXTENT_MAX:
            raise SchemaError(
                f"embed_dim * mlp_ratio = {hidden} is not an integer FFN width "
                f"in [1, {EXTENT_MAX}]"
            )

    @property
    def head_dim(self) -> int:
        return self.embed_dim // self.num_heads

    @property
    def ffn_dim(self) -> int:
        return int(round(self.embed_dim * self.mlp_ratio))


@dataclass(frozen=True)
class OpNode:
    """One operation in the DAG.

    ``dims`` is the (n, k, m) triple of a matmul A(n,k) @ B(k,m); for
    head-grouped matmuls the dims are per head and ``heads`` counts the
    repeats. ``out_shape`` is the (rows, cols) of the node output with heads
    concatenated column-wise. ``work_elems`` is the element count charged to
    the non-linear/elementwise cost model.
    """

    id: str
    kind: OpKind
    inputs: tuple[str, ...] = ()
    out_shape: tuple[int, int] = (1, 1)
    dims: Optional[tuple[int, int, int]] = None
    head_scoped: bool = False
    heads: int = 1
    work_elems: int = 0
    slice_rows: bool = False

    def __post_init__(self):
        if self.kind is OpKind.MATMUL:
            if self.dims is None or min(self.dims) < 1:
                raise SchemaError(f"node {self.id}: MatMul dims must be >= 1, got {self.dims}")
        elif self.dims is not None:
            raise SchemaError(f"node {self.id}: dims only valid on MatMul nodes")
        if self.head_scoped and self.kind not in (OpKind.MATMUL, OpKind.SOFTMAX):
            raise SchemaError(f"node {self.id}: head_scoped requires MatMul or Softmax")
        if self.heads < 1:
            raise SchemaError(f"node {self.id}: heads must be >= 1")
        if self.work_elems == 0:
            object.__setattr__(self, "work_elems", self.out_shape[0] * self.out_shape[1])

    @property
    def macs(self) -> int:
        """Multiply-accumulate count, all heads included (0 for non-matmul)."""
        if self.dims is None:
            return 0
        n, k, m = self.dims
        return self.heads * n * k * m


@dataclass(frozen=True)
class Dag:
    """Immutable operation DAG, listed in topological order.

    Every node's inputs must be listed before it, so the listing is the
    order ``analyze`` walks, and validation is one pass that also rules out
    cycles. An input not listed earlier (unknown, later, or the node
    itself), duplicate ids and mismatched shapes raise ``SchemaError``.
    """

    nodes: tuple[OpNode, ...]

    def __post_init__(self):
        by_id: dict[str, OpNode] = {}
        for node in self.nodes:
            for src in node.inputs:
                if src not in by_id:
                    raise SchemaError(f"node {node.id}: input {src!r} is unknown or listed "
                                      "after it")
            by_id[node.id] = node
        if len(by_id) != len(self.nodes):
            raise SchemaError("duplicate node ids")
        object.__setattr__(self, "_by_id", by_id)
        _check_shapes(self)

    def node(self, node_id: str) -> OpNode:
        return self._by_id[node_id]

    def matmuls(self) -> tuple[OpNode, ...]:
        return tuple(n for n in self.nodes if n.kind is OpKind.MATMUL)


def _check_shapes(dag: Dag) -> None:
    """Every edge must connect a producer output to a matching consumer slot."""
    by_id = dag._by_id
    for node in dag.nodes:
        ins = [by_id[i].out_shape for i in node.inputs]
        if node.kind is OpKind.MATMUL:
            n, k, m = node.dims
            if node.head_scoped:
                want_a = (n, node.heads * k)
                want_b = {(n, node.heads * k), (n, node.heads * m)}
                if ins and ins[0] != want_a:
                    raise SchemaError(f"node {node.id}: A input {ins[0]} != {want_a}")
                if len(ins) > 1 and ins[1] not in want_b:
                    raise SchemaError(f"node {node.id}: B input {ins[1]} not in {want_b}")
            elif ins:
                rows, cols = ins[0]
                if cols != k or (rows != n and not node.slice_rows) or rows < n:
                    raise SchemaError(f"node {node.id}: input {ins[0]} incompatible with dims {node.dims}")
        elif node.kind is OpKind.ADD:
            if len(ins) != 2 or ins[0] != ins[1] or ins[0] != node.out_shape:
                raise SchemaError(f"node {node.id}: Add inputs {ins} must both equal {node.out_shape}")
        elif node.kind is OpKind.SPLIT:
            rows, cols = node.out_shape
            if ins and ins[0] != (rows, 3 * cols):
                raise SchemaError(f"node {node.id}: Split input {ins[0]} != {(rows, 3 * cols)}")
        else:  # elementwise: LayerNorm, Softmax, Gelu, Concat
            if ins and ins[0] != node.out_shape:
                raise SchemaError(f"node {node.id}: input {ins[0]} != output {node.out_shape}")


def parse_model(doc: Mapping) -> ModelSpec:
    """Validate a model-description document (parsed JSON) into a ModelSpec."""
    return ModelSpec(**read(doc, "model document", MODEL_FIELDS, MODEL_OPTIONAL,
                            version=MODEL_SCHEMA_VERSION))


def build_dag(spec: ModelSpec) -> Dag:
    """Expand a ModelSpec into its encoder-stack DAG.

    The graph is: an embedding matmul source, ``num_layers`` encoder layers
    (pre-norm attention block and pre-norm FFN block with two residual adds),
    and a classifier matmul over the class-token row. Class-token
    concatenation and the positional-embedding add happen on the host and
    carry no nodes.
    """
    t, d = spec.num_tokens, spec.embed_dim
    dh, nh, h = spec.head_dim, spec.num_heads, spec.ffn_dim
    width = max(2, len(str(spec.num_layers - 1)))

    nodes: list[OpNode] = [
        OpNode("embed", OpKind.MATMUL, (), (t, d), dims=(t, spec.patch_pixels, d)),
    ]
    prev = "embed"
    for li in range(spec.num_layers):
        p = f"l{li:0{width}d}"
        nodes += [
            OpNode(f"{p}.ln1", OpKind.LAYERNORM, (prev,), (t, d)),
            OpNode(f"{p}.q", OpKind.MATMUL, (f"{p}.ln1",), (t, d), dims=(t, d, d)),
            OpNode(f"{p}.k", OpKind.MATMUL, (f"{p}.ln1",), (t, d), dims=(t, d, d)),
            OpNode(f"{p}.v", OpKind.MATMUL, (f"{p}.ln1",), (t, d), dims=(t, d, d)),
            OpNode(f"{p}.scores", OpKind.MATMUL, (f"{p}.q", f"{p}.k"), (t, nh * t),
                   dims=(t, dh, t), head_scoped=True, heads=nh),
            OpNode(f"{p}.softmax", OpKind.SOFTMAX, (f"{p}.scores",), (t, nh * t),
                   head_scoped=True, heads=nh),
            OpNode(f"{p}.attnv", OpKind.MATMUL, (f"{p}.softmax", f"{p}.v"), (t, d),
                   dims=(t, t, dh), head_scoped=True, heads=nh),
            OpNode(f"{p}.concat", OpKind.CONCAT, (f"{p}.attnv",), (t, d)),
            OpNode(f"{p}.proj", OpKind.MATMUL, (f"{p}.concat",), (t, d), dims=(t, d, d)),
            OpNode(f"{p}.add1", OpKind.ADD, (prev, f"{p}.proj"), (t, d)),
            OpNode(f"{p}.ln2", OpKind.LAYERNORM, (f"{p}.add1",), (t, d)),
            OpNode(f"{p}.fc1", OpKind.MATMUL, (f"{p}.ln2",), (t, h), dims=(t, d, h)),
            OpNode(f"{p}.gelu", OpKind.GELU, (f"{p}.fc1",), (t, h)),
            OpNode(f"{p}.fc2", OpKind.MATMUL, (f"{p}.gelu",), (t, d), dims=(t, h, d)),
            OpNode(f"{p}.add2", OpKind.ADD, (f"{p}.add1", f"{p}.fc2"), (t, d)),
        ]
        prev = f"{p}.add2"
    nodes.append(
        OpNode("classifier", OpKind.MATMUL, (prev,), (1, spec.num_classes),
               dims=(1, d, spec.num_classes), slice_rows=True)
    )
    return Dag(tuple(nodes))


def _qkv_triples(dag: Dag) -> dict[str, tuple[OpNode, OpNode, OpNode]]:
    """Q/K/V matmul triples by Q id: same input, same dims, feeding one attention block."""
    triples = {}
    for node in dag.nodes:
        if node.kind is OpKind.MATMUL and node.id.endswith(".q"):
            prefix = node.id[:-2]
            try:
                k_node = dag.node(f"{prefix}.k")
                v_node = dag.node(f"{prefix}.v")
            except KeyError:
                continue
            if (k_node.kind is OpKind.MATMUL and v_node.kind is OpKind.MATMUL
                    and node.inputs == k_node.inputs == v_node.inputs
                    and node.dims == k_node.dims == v_node.dims):
                triples[node.id] = (node, k_node, v_node)
    return triples


def _rebuilt(node: OpNode, inputs, out_shape, dims, work_elems) -> OpNode:
    """``node`` with new inputs and sizes, constructed directly."""
    return OpNode(node.id, node.kind, inputs, out_shape, dims, node.head_scoped, node.heads,
                  work_elems, node.slice_rows)


def fuse_qkv(dag: Dag, hw) -> Dag:
    """Fuse each Q/K/V matmul triple into one triple-width matmul plus a Split.

    The rewrite only fires when the fused weight matrix, k rows by
    3*embed_dim columns, fits the on-chip tile capacity (k * 3m <= S);
    otherwise the DAG is returned unchanged and a diagnostic is logged.
    Already-fused graphs have no triples and pass through untouched.
    """
    triples = _qkv_triples(dag)
    if not triples:
        return dag
    n0, k0, m0 = next(iter(triples.values()))[0].dims
    if k0 * 3 * m0 > hw.onchip_capacity_elems:
        log.info(
            "qkv fusion skipped: fused weights %d x %d = %d elems exceed on-chip capacity %d",
            k0, 3 * m0, k0 * 3 * m0, hw.onchip_capacity_elems,
        )
        return dag

    replaced: dict[str, str] = {}
    new_nodes: list[OpNode] = []
    for node in dag.nodes:
        triple = triples.get(node.id)
        if triple is not None:
            n, k, m = node.dims
            prefix = node.id[:-2]
            fused = OpNode(f"{prefix}.qkv", OpKind.MATMUL, node.inputs, (n, 3 * m),
                           dims=(n, k, 3 * m))
            split = OpNode(f"{prefix}.qkv_split", OpKind.SPLIT, (fused.id,), (n, m),
                           work_elems=n * 3 * m)
            new_nodes += [fused, split]
            for old in triple:
                replaced[old.id] = split.id
        elif node.id in replaced:
            continue  # .k / .v of a fused triple
        else:
            new_inputs = tuple(replaced.get(i, i) for i in node.inputs)
            if new_inputs != node.inputs:
                node = _rebuilt(node, new_inputs, node.out_shape, node.dims, node.work_elems)
            new_nodes.append(node)
    return Dag(tuple(new_nodes))


def batch_expand(dag: Dag, batch: int) -> Dag:
    """Stack ``batch`` inputs row-wise: every node's row count scales by batch."""
    check({"batch": batch}, MODEL_OPTIONAL)
    if batch == 1:
        return dag
    new_nodes = []
    for node in dag.nodes:
        rows, cols = node.out_shape
        dims = node.dims
        if dims is not None:
            n, k, m = dims
            dims = (n * batch, k, m)
        new_nodes.append(_rebuilt(node, node.inputs, (rows * batch, cols), dims,
                                  node.work_elems * batch))
    return Dag(tuple(new_nodes))


@dataclass(frozen=True)
class MatmulInfo:
    id: str
    n: int
    k: int
    m: int
    heads: int
    head_scoped: bool
    macs: int


@dataclass(frozen=True)
class AnalysisReport:
    kind_counts: dict[str, int]
    matmuls: tuple[MatmulInfo, ...]
    total_macs: int
    critical_path_len: int

    def to_json(self) -> str:
        """The scalars; the per-matmul table is ``to_csv``'s alone."""
        return json_text({
            "kind_counts": self.kind_counts,
            "total_macs": self.total_macs,
            "critical_path_len": self.critical_path_len,
        })

    def to_csv(self) -> str:
        return csv_text(["id", "n", "k", "m", "heads", "head_scoped", "macs"],
                        ((m.id, m.n, m.k, m.m, m.heads, m.head_scoped, m.macs)
                         for m in self.matmuls))


def analyze(dag: Dag) -> AnalysisReport:
    """Classify the DAG: per-kind counts, matmul shapes, MACs, critical path."""
    kind_counts: dict[str, int] = {}
    for node in dag.nodes:
        kind = node.kind.value
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
    matmuls = tuple(
        MatmulInfo(n.id, n.dims[0], n.dims[1], n.dims[2], n.heads, n.head_scoped, n.macs)
        for n in dag.matmuls()
    )
    depth: dict[str, int] = {}
    for node in dag.nodes:
        deepest = 0
        for src in node.inputs:
            if depth[src] > deepest:
                deepest = depth[src]
        depth[node.id] = deepest + 1
    return AnalysisReport(
        kind_counts=kind_counts,
        matmuls=matmuls,
        total_macs=sum(m.macs for m in matmuls),
        critical_path_len=max(depth.values(), default=0),
    )
