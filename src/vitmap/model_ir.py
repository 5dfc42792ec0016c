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
import operator
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


_MATMUL, _SOFTMAX, _ADD, _SPLIT = OpKind.MATMUL, OpKind.SOFTMAX, OpKind.ADD, OpKind.SPLIT
# Sets a frozen field; one __dict__ update is faster but gives each node a tracked dict.
_set = object.__setattr__
# An encoder layer's node ids, after the layer's prefix, in listing order.
_LAYER_IDS = (".ln1", ".q", ".k", ".v", ".scores", ".softmax", ".attnv", ".concat", ".proj",
              ".add1", ".ln2", ".fc1", ".gelu", ".fc2", ".add2")


@dataclass(frozen=True)
class OpNode:
    """One operation in the DAG.

    ``dims`` is the (n, k, m) triple of a matmul A(n,k) @ B(k,m); for
    head-grouped matmuls the dims are per head and ``heads`` counts the
    repeats. ``out_shape`` is the (rows, cols) of the node output with heads
    concatenated column-wise. ``work_elems`` is the element count charged to
    the non-linear/elementwise cost model; 0 means ``rows * cols``. The
    written-out ``__init__`` checks its arguments, then sets each field once.
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

    def __init__(self, id, kind, inputs=(), out_shape=(1, 1), dims=None, head_scoped=False,
                 heads=1, work_elems=0, slice_rows=False):
        if kind is _MATMUL:
            if dims is None or min(dims) < 1:
                raise SchemaError(f"node {id}: MatMul dims must be >= 1, got {dims}")
        elif dims is not None:
            raise SchemaError(f"node {id}: dims only valid on MatMul nodes")
        if head_scoped and kind is not _MATMUL and kind is not _SOFTMAX:
            raise SchemaError(f"node {id}: head_scoped requires MatMul or Softmax")
        if heads < 1:
            raise SchemaError(f"node {id}: heads must be >= 1")
        if work_elems == 0:
            work_elems = out_shape[0] * out_shape[1]
        _set(self, "id", id)
        _set(self, "kind", kind)
        _set(self, "inputs", inputs)
        _set(self, "out_shape", out_shape)
        _set(self, "dims", dims)
        _set(self, "head_scoped", head_scoped)
        _set(self, "heads", heads)
        _set(self, "work_elems", work_elems)
        _set(self, "slice_rows", slice_rows)

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
    order ``analyze`` walks. Validation is one pass: each node's inputs must
    be listed before it (which rules out cycles), and each edge must connect
    a producer's output to a matching consumer slot; the first node that
    breaks either raises ``SchemaError``, and duplicate ids raise after the pass.
    """

    nodes: tuple[OpNode, ...]

    def __post_init__(self):
        by_id: dict[str, OpNode] = {}
        for node in self.nodes:
            ins = []
            for src in node.inputs:
                producer = by_id.get(src)
                if producer is None:
                    raise SchemaError(f"node {node.id}: input {src!r} is unknown or listed "
                                      "after it")
                ins.append(producer.out_shape)
            kind = node.kind
            if kind is _MATMUL:
                n, k, m = node.dims
                if node.head_scoped:
                    want_a = (n, node.heads * k)
                    want_b = {want_a, (n, node.heads * m)}
                    if ins and ins[0] != want_a:
                        raise SchemaError(f"node {node.id}: A input {ins[0]} != {want_a}")
                    if len(ins) > 1 and ins[1] not in want_b:
                        raise SchemaError(f"node {node.id}: B input {ins[1]} not in {want_b}")
                elif ins:
                    rows, cols = ins[0]
                    if cols != k or (rows != n and not node.slice_rows) or rows < n:
                        raise SchemaError(f"node {node.id}: input {ins[0]} incompatible with "
                                          f"dims {node.dims}")
            elif kind is _ADD:
                if len(ins) != 2 or ins[0] != ins[1] or ins[0] != node.out_shape:
                    raise SchemaError(f"node {node.id}: Add inputs {ins} must both equal "
                                      f"{node.out_shape}")
            elif kind is _SPLIT:
                rows, cols = node.out_shape
                if ins and ins[0] != (rows, 3 * cols):
                    raise SchemaError(f"node {node.id}: Split input {ins[0]} != "
                                      f"{(rows, 3 * cols)}")
            elif ins and ins[0] != node.out_shape:  # elementwise: LayerNorm, Softmax, Gelu, Concat
                raise SchemaError(f"node {node.id}: input {ins[0]} != output {node.out_shape}")
            by_id[node.id] = node
        if len(by_id) != len(self.nodes):
            raise SchemaError("duplicate node ids")
        object.__setattr__(self, "_by_id", by_id)

    def node(self, node_id: str) -> OpNode:
        return self._by_id[node_id]

    def matmuls(self) -> tuple[OpNode, ...]:
        return tuple(n for n in self.nodes if n.kind is _MATMUL)


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
    # Every layer shares these tuples.
    td, tnt, th = (t, d), (t, nh * t), (t, h)
    proj, scores, attnv = (t, d, d), (t, dh, t), (t, t, dh)
    fc1, fc2 = (t, d, h), (t, h, d)
    mm, ln, gelu, concat = _MATMUL, OpKind.LAYERNORM, OpKind.GELU, OpKind.CONCAT

    nodes: list[OpNode] = [OpNode("embed", mm, (), td, (t, spec.patch_pixels, d))]
    prev = "embed"
    for li in range(spec.num_layers):
        prefix = "l" + str(li).zfill(width)
        ln1, q, k, v, sc, sm, av, cat, pr, add1, ln2, f1, ge, f2, add2 = map(prefix.__add__,
                                                                            _LAYER_IDS)
        nodes += (
            OpNode(ln1, ln, (prev,), td),
            OpNode(q, mm, (ln1,), td, proj),
            OpNode(k, mm, (ln1,), td, proj),
            OpNode(v, mm, (ln1,), td, proj),
            OpNode(sc, mm, (q, k), tnt, scores, True, nh),
            OpNode(sm, _SOFTMAX, (sc,), tnt, None, True, nh),
            OpNode(av, mm, (sm, v), td, attnv, True, nh),
            OpNode(cat, concat, (av,), td),
            OpNode(pr, mm, (cat,), td, proj),
            OpNode(add1, _ADD, (prev, pr), td),
            OpNode(ln2, ln, (add1,), td),
            OpNode(f1, mm, (ln2,), th, fc1),
            OpNode(ge, gelu, (f1,), th),
            OpNode(f2, mm, (ge,), td, fc2),
            OpNode(add2, _ADD, (add1, f2), td),
        )
        prev = add2
    nodes.append(OpNode("classifier", mm, (prev,), (1, spec.num_classes),
                        (1, d, spec.num_classes), slice_rows=True))
    return Dag(tuple(nodes))


def _qkv_triples(dag: Dag) -> dict[str, tuple[OpNode, OpNode, OpNode]]:
    """Q/K/V matmul triples by Q id: same input, same dims, feeding one attention block."""
    by_id = dag._by_id
    triples = {}
    for node in dag.nodes:
        if node.kind is _MATMUL and node.id.endswith(".q"):
            prefix = node.id[:-2]
            k_node = by_id.get(prefix + ".k")
            v_node = by_id.get(prefix + ".v")
            if (k_node is not None and v_node is not None
                    and k_node.kind is _MATMUL and v_node.kind is _MATMUL
                    and node.inputs == k_node.inputs == v_node.inputs
                    and node.dims == k_node.dims == v_node.dims):
                triples[node.id] = (node, k_node, v_node)
    return triples


def fuse_qkv(dag: Dag, hw) -> Dag:
    """Fuse each Q/K/V matmul triple into one triple-width matmul plus a Split.

    The rewrite only fires when the fused weight matrix, k rows by
    3*embed_dim columns, fits the on-chip tile capacity (k * 3m <= S);
    otherwise the DAG is returned unchanged and a diagnostic is logged.
    Already-fused graphs have no triples and pass through untouched. Only
    the nodes that read a replaced id are rebuilt; the rest are reused.
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
            fused, split = prefix + ".qkv", prefix + ".qkv_split"
            new_nodes += (OpNode(fused, _MATMUL, node.inputs, (n, 3 * m), (n, k, 3 * m)),
                          OpNode(split, _SPLIT, (fused,), (n, m), work_elems=n * 3 * m))
            for old in triple:
                replaced[old.id] = split
        elif node.id in replaced:
            continue  # .k / .v of a fused triple
        elif replaced.keys().isdisjoint(node.inputs):
            new_nodes.append(node)
        else:
            new_nodes.append(OpNode(node.id, node.kind,
                                    tuple([replaced.get(i, i) for i in node.inputs]),
                                    node.out_shape, node.dims, node.head_scoped, node.heads,
                                    node.work_elems, node.slice_rows))
    return Dag(tuple(new_nodes))


def batch_expand(dag: Dag, batch: int) -> Dag:
    """Stack ``batch`` inputs row-wise: every node's row count scales by batch."""
    check({"batch": batch}, MODEL_OPTIONAL)
    if batch == 1:
        return dag
    return Dag(tuple([
        OpNode(node.id, node.kind, node.inputs, (node.out_shape[0] * batch, node.out_shape[1]),
               None if node.dims is None else (node.dims[0] * batch, node.dims[1], node.dims[2]),
               node.head_scoped, node.heads, node.work_elems * batch, node.slice_rows)
        for node in dag.nodes
    ]))


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
        header = ("id", "n", "k", "m", "heads", "head_scoped", "macs")  # MatmulInfo's fields
        return csv_text(header, map(operator.attrgetter(*header), self.matmuls))


def analyze(dag: Dag) -> AnalysisReport:
    """Classify the DAG in one pass: per-kind counts, matmul shapes, MACs, critical path."""
    kind_counts: dict[OpKind, int] = {}
    matmuls = []
    total_macs = 0
    depth: dict[str, int] = {}
    for node in dag.nodes:
        kind = node.kind
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        if kind is _MATMUL:
            n, k, m = node.dims
            macs = node.heads * n * k * m
            total_macs += macs
            matmuls.append(MatmulInfo(node.id, n, k, m, node.heads, node.head_scoped, macs))
        deepest = 0
        for src in node.inputs:
            below = depth[src]
            if below > deepest:
                deepest = below
        depth[node.id] = deepest + 1
    return AnalysisReport(
        kind_counts={kind._value_: count for kind, count in kind_counts.items()},
        matmuls=tuple(matmuls),
        total_macs=total_macs,
        critical_path_len=max(depth.values(), default=0),
    )
