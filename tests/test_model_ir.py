import dataclasses
import json
import logging
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_tiny_dag, small_specs_and_boards, tiny_model, toy_hw
from vitmap.errors import SchemaError
from vitmap.model_ir import (
    Dag,
    MatmulInfo,
    ModelSpec,
    OpKind,
    OpNode,
    analyze,
    batch_expand,
    build_dag,
    fuse_qkv,
    parse_model,
)

DEIT_B = {
    "schema_version": 1, "name": "deit-base", "embed_dim": 768, "num_heads": 12,
    "num_layers": 12, "num_tokens": 197, "mlp_ratio": 4.0,
}


def vit_param_count(spec: ModelSpec) -> int:
    """Independent parameter-count oracle for the standard ViT recipe."""
    d, h, t = spec.embed_dim, spec.ffn_dim, spec.num_tokens
    patch = spec.patch_pixels * d + d
    cls_and_pos = d + t * d
    per_layer = (
        3 * (d * d + d)      # qkv projections
        + d * d + d          # output projection
        + d * h + h          # fc1
        + h * d + d          # fc2
        + 2 * 2 * d          # two layernorms
    )
    final_ln = 2 * d
    head = d * spec.num_classes + spec.num_classes
    return patch + cls_and_pos + spec.num_layers * per_layer + final_ln + head


def replace_fuse_qkv(dag: Dag, hw) -> Dag:
    """``fuse_qkv`` restated with ``dataclasses.replace`` and a scan per node."""
    triples = []
    for q in dag.nodes:
        if q.kind is not OpKind.MATMUL or not q.id.endswith(".q"):
            continue
        k, v = dag._by_id.get(q.id[:-2] + ".k"), dag._by_id.get(q.id[:-2] + ".v")
        if (k is not None and v is not None and k.kind is v.kind is OpKind.MATMUL
                and q.inputs == k.inputs == v.inputs and q.dims == k.dims == v.dims):
            triples.append((q, k, v))
    if not triples:
        return dag
    _, k0, m0 = triples[0][0].dims
    if k0 * 3 * m0 > hw.onchip_capacity_elems:
        return dag
    replaced, nodes = {}, []
    for node in dag.nodes:
        triple = next((tr for tr in triples if node is tr[0]), None)
        if triple is not None:
            n, k, m = node.dims
            prefix = node.id[:-2]
            nodes += [OpNode(f"{prefix}.qkv", OpKind.MATMUL, node.inputs, (n, 3 * m),
                             dims=(n, k, 3 * m)),
                      OpNode(f"{prefix}.qkv_split", OpKind.SPLIT, (f"{prefix}.qkv",), (n, m),
                             work_elems=n * 3 * m)]
            replaced.update((old.id, f"{prefix}.qkv_split") for old in triple)
        elif node.id not in replaced:
            nodes.append(replace(node, inputs=tuple(replaced.get(i, i) for i in node.inputs)))
    return Dag(tuple(nodes))


def replace_batch_expand(dag: Dag, batch: int) -> Dag:
    """``batch_expand`` restated with ``dataclasses.replace``."""
    return Dag(tuple(replace(
        node, out_shape=(node.out_shape[0] * batch, node.out_shape[1]),
        dims=None if node.dims is None else (node.dims[0] * batch, *node.dims[1:]),
        work_elems=node.work_elems * batch) for node in dag.nodes))


class TestParseModel:
    def test_deit_b_matches_param_count_oracle(self):
        spec = parse_model(DEIT_B)
        count = vit_param_count(spec)
        assert 85e6 < count < 88e6  # published DeiT-B is ~86M

    def test_divisibility_rejected(self):
        with pytest.raises(SchemaError):
            parse_model({**DEIT_B, "embed_dim": 10, "num_heads": 3})

    def test_minimal_model_valid(self):
        doc = {"schema_version": 1, "name": "min", "embed_dim": 4, "num_heads": 1,
               "num_layers": 1, "num_tokens": 2}
        spec = parse_model(doc)
        assert spec.head_dim == 4 and spec.ffn_dim == 16

    def test_schema_version_mandatory(self):
        with pytest.raises(SchemaError, match="schema_version"):
            parse_model({k: v for k, v in DEIT_B.items() if k != "schema_version"})

    def test_missing_field_rejected(self):
        with pytest.raises(SchemaError, match="missing"):
            parse_model({"schema_version": 1, "name": "x", "embed_dim": 8})

    def test_nonpositive_rejected(self):
        with pytest.raises(SchemaError):
            parse_model({**DEIT_B, "num_layers": 0})

    def test_fractional_ffn_rejected(self):
        with pytest.raises(SchemaError, match="mlp_ratio|FFN"):
            parse_model({**DEIT_B, "mlp_ratio": 4.1})


class TestBuildDag:
    def test_single_layer_counts(self):
        dag = build_dag(tiny_model(embed_dim=4, num_heads=2))
        kinds = analyze(dag).kind_counts
        assert kinds["LayerNorm"] == 2
        assert kinds["Add"] == 2
        assert kinds["Softmax"] == 1
        assert kinds["Gelu"] == 1
        (softmax,) = [n for n in dag.nodes if n.kind is OpKind.SOFTMAX]
        assert softmax.head_scoped and softmax.heads == 2

    def test_layer_multiset_structural_induction(self):
        """L layers = L copies of the encoder-layer multiset + embed + classifier."""
        def multiset(dag, with_prefix):
            out = {}
            for n in dag.nodes:
                if ("." in n.id) == with_prefix:
                    key = (n.kind, n.dims, n.out_shape, n.heads)
                    out[key] = out.get(key, 0) + 1
            return out

        one = build_dag(tiny_model(num_layers=1))
        twelve = build_dag(tiny_model(num_layers=12))
        layer_one = multiset(one, True)
        layer_twelve = multiset(twelve, True)
        assert layer_twelve == {k: 12 * v for k, v in layer_one.items()}
        assert multiset(twelve, False) == multiset(one, False)  # embed + classifier
        ends = [n.kind for n in twelve.nodes if "." not in n.id]
        assert ends == [OpKind.MATMUL, OpKind.MATMUL]

    def test_zero_layers_rejected(self):
        with pytest.raises(SchemaError):
            tiny_model(num_layers=0)

    def test_dag_acyclic_and_shapes_for_random_specs(self, vu9p):
        rng = np.random.default_rng(3)
        for _ in range(25):
            heads = int(rng.integers(1, 5))
            spec = tiny_model(
                embed_dim=heads * int(rng.integers(1, 9)),
                num_heads=heads,
                num_layers=int(rng.integers(1, 4)),
                num_tokens=int(rng.integers(2, 32)),
            )
            dag = build_dag(spec)  # construction re-validates shapes + acyclicity
            for listed in (dag, fuse_qkv(dag, vu9p), batch_expand(dag, 3)):
                position = {n.id: i for i, n in enumerate(listed.nodes)}
                assert all(position[src] < position[n.id]
                           for n in listed.nodes for src in n.inputs)


class TestFuseQkv:
    def test_deit_small_fuses_to_triple_width(self, vu9p):
        spec = parse_model({**DEIT_B, "name": "deit-small", "embed_dim": 384,
                            "num_heads": 6})
        fused = fuse_qkv(build_dag(spec), vu9p)
        qkv = [n for n in fused.nodes if n.id.endswith(".qkv")]
        assert len(qkv) == 12
        assert all(n.dims == (197, 384, 1152) for n in qkv)
        splits = [n for n in fused.nodes if n.kind is OpKind.SPLIT]
        assert len(splits) == 12
        assert all(n.out_shape == (197, 384) for n in splits)

    def test_gate_closed_returns_same_dag(self, caplog):
        dag = build_tiny_dag()
        hw = toy_hw(onchip_capacity_elems=4 * 3 * 4 - 1)  # below the fused weights
        with caplog.at_level(logging.INFO, logger="vitmap.model_ir"):
            out = fuse_qkv(dag, hw)
        assert out is dag
        assert any("fusion skipped" in r.message for r in caplog.records)

    def test_idempotent(self, vu9p):
        dag = build_tiny_dag()
        once = fuse_qkv(dag, vu9p)
        twice = fuse_qkv(once, vu9p)
        assert once == twice
        assert once != dag

    def test_fusion_preserves_total_macs(self, vu9p):
        dag = build_dag(parse_model(DEIT_B))
        assert analyze(fuse_qkv(dag, vu9p)).total_macs == analyze(dag).total_macs


@settings(max_examples=60)
@given(small_specs_and_boards(), st.booleans(), st.integers(1, 64))
def test_rewrites_equal_replace_based_versions(case, fuse, batch):
    """Node for node, the rewrites build what ``dataclasses.replace`` would."""
    spec, hw = case
    dag = build_dag(spec)
    fused = fuse_qkv(dag, hw) if fuse else dag
    if fuse:
        assert fused == replace_fuse_qkv(dag, hw)
        assert (fused is dag) == (replace_fuse_qkv(dag, hw) is dag)
    out = batch_expand(fused, batch)
    assert isinstance(out, Dag)
    assert out.nodes == replace_batch_expand(fused, batch).nodes


class TestBatchExpand:
    def test_batch_one_is_identity(self):
        dag = build_tiny_dag()
        assert batch_expand(dag, 1) is dag

    def test_deit_t_batch_two_qkv_rows(self):
        spec = parse_model({**DEIT_B, "embed_dim": 192, "num_heads": 3})
        dag = batch_expand(build_dag(spec), 2)
        q = dag.node("l00.q")
        assert q.dims == (394, 192, 192)  # 197 * 2

    def test_batch_four_scales_only_rows(self):
        dag = build_tiny_dag()
        out = batch_expand(dag, 4)
        for before, after in zip(dag.nodes, out.nodes):
            if before.kind is OpKind.MATMUL:
                n, k, m = before.dims
                assert after.dims == (4 * n, k, m)
            assert after.out_shape == (4 * before.out_shape[0], before.out_shape[1])
        assert analyze(out).total_macs == 4 * analyze(dag).total_macs

    def test_batch_zero_rejected(self):
        with pytest.raises(SchemaError):
            batch_expand(build_tiny_dag(), 0)


class TestAnalyze:
    def test_toy_macs_hand_sum(self):
        # d=4, heads=1, tokens=2, ffn=16, patch_pixels=768, classes=1000:
        # embed 2*768*4, q/k/v 3*(2*4*4), scores 2*4*2, attnv 2*2*4,
        # proj 2*4*4, fc1 2*4*16, fc2 2*16*4, classifier 1*4*1000
        dag = build_tiny_dag()
        expected = 2 * 768 * 4 + 3 * 32 + 16 + 16 + 32 + 128 + 128 + 4000
        assert analyze(dag).total_macs == expected

    def test_deit_b_softmax_groups(self):
        assert analyze(build_dag(parse_model(DEIT_B))).kind_counts["Softmax"] == 12

    def test_reports_export(self):
        report = analyze(build_tiny_dag())
        parsed = json.loads(report.to_json())
        assert parsed == {"kind_counts": report.kind_counts, "total_macs": report.total_macs,
                          "critical_path_len": report.critical_path_len}
        lines = report.to_csv().strip().splitlines()
        assert lines[0].startswith("id,n,k,m")
        assert len(lines) == 1 + len(report.matmuls)


class TestTopoSchedule:
    """A DAG's listing is its topological order."""

    def _elementwise(self, nid, inputs):
        return OpNode(nid, OpKind.GELU, inputs, (2, 2))

    def test_deit_t_softmax_follows_scores(self):
        spec = parse_model({**DEIT_B, "embed_dim": 192, "num_heads": 3})
        dag = build_dag(spec)
        order = {node.id: i for i, node in enumerate(dag.nodes)}
        for node in dag.nodes:
            for src in node.inputs:
                assert order[src] < order[node.id]

    def test_cycle_detected(self):
        nodes = (self._elementwise("a", ("b",)), self._elementwise("b", ("a",)))
        with pytest.raises(SchemaError, match="listed after it"):
            Dag(nodes)


class TestValidation:
    """Validation is one pass over the listing; an input listed late is rejected."""

    def _elementwise(self, nid, inputs):
        return OpNode(nid, OpKind.GELU, inputs, (2, 2))

    def test_in_order_listing_is_its_own_order(self):
        dag = Dag((self._elementwise("c", ()), self._elementwise("b", ("c",)),
                   self._elementwise("a", ("c",))))
        assert analyze(dag).critical_path_len == 2

    @pytest.mark.parametrize("nodes,message", [
        ((("a", ()), ("a", ())), "duplicate node ids"),
        ((("a", ()), ("b", ("a",)), ("a", ("b",))), "duplicate node ids"),
        ((("a", ()), ("b", ("zz",))), "node b: input 'zz' is unknown or listed after it"),
        ((("b", ("a",)), ("a", ()), ("c", ("zz",))),
         "node b: input 'a' is unknown or listed after it"),
        ((("a", ("b",)), ("b", ("zz",))), "node a: input 'b' is unknown or listed after it"),
        ((("a", ("a",)),), "node a: input 'a' is unknown or listed after it"),
        ((("r", ()), ("a", ("r", "b")), ("b", ("a",))),
         "node a: input 'b' is unknown or listed after it"),
    ])
    def test_invalid_graphs_raise_the_same_messages(self, nodes, message):
        with pytest.raises(SchemaError) as exc:
            Dag(tuple(self._elementwise(nid, inputs) for nid, inputs in nodes))
        assert str(exc.value) == message

    @pytest.mark.parametrize("model", [dict(), dict(embed_dim=6, num_heads=3, num_layers=3)])
    def test_shuffled_listing_rejected(self, model):
        dag = build_dag(tiny_model(**model))
        for nodes in (dag.nodes[::-1], dag.nodes[1::2] + dag.nodes[::2]):
            with pytest.raises(SchemaError, match="is unknown or listed after it"):
                Dag(nodes)  # a consumer listed before its producer

    def test_out_of_order_listing_rejected(self):
        # Rejected for its order before its mismatched shapes are compared.
        with pytest.raises(SchemaError, match="node g: input 'a' is unknown or listed after it"):
            Dag((
                OpNode("g", OpKind.GELU, ("a",), (4, 9)),
                OpNode("a", OpKind.MATMUL, (), (4, 8), dims=(4, 2, 8)),
            ))


class TestShapeConsistency:
    def test_mismatched_elementwise_rejected(self):
        with pytest.raises(SchemaError):
            Dag((
                OpNode("a", OpKind.MATMUL, (), (4, 8), dims=(4, 2, 8)),
                OpNode("g", OpKind.GELU, ("a",), (4, 9)),
            ))

    def test_matmul_contraction_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Dag((
                OpNode("a", OpKind.MATMUL, (), (4, 8), dims=(4, 2, 8)),
                OpNode("b", OpKind.MATMUL, ("a",), (4, 3), dims=(4, 9, 3)),
            ))


# ---------------------------------------------------------------------------
# Validation oracle: the node checks and the two-pass DAG validation as they
# stood before ``OpNode`` got a written-out ``__init__`` and ``Dag`` one pass.

NODE_FIELDS = ("id", "kind", "inputs", "out_shape", "dims", "head_scoped", "heads",
               "work_elems", "slice_rows")


def reference_node_error(fields: dict):
    """The message of the first node check ``fields`` fail, or None."""
    nid, kind, dims = fields["id"], fields["kind"], fields["dims"]
    if kind is OpKind.MATMUL:
        if dims is None or min(dims) < 1:
            return f"node {nid}: MatMul dims must be >= 1, got {dims}"
    elif dims is not None:
        return f"node {nid}: dims only valid on MatMul nodes"
    if fields["head_scoped"] and kind not in (OpKind.MATMUL, OpKind.SOFTMAX):
        return f"node {nid}: head_scoped requires MatMul or Softmax"
    if fields["heads"] < 1:
        return f"node {nid}: heads must be >= 1"
    return None


def reference_shape_fault(node, ins):
    """The shape check of one node whose input shapes are ``ins``."""
    if node.kind is OpKind.MATMUL:
        n, k, m = node.dims
        if node.head_scoped:
            want_a = (n, node.heads * k)
            want_b = {(n, node.heads * k), (n, node.heads * m)}
            if ins and ins[0] != want_a:
                return f"node {node.id}: A input {ins[0]} != {want_a}"
            if len(ins) > 1 and ins[1] not in want_b:
                return f"node {node.id}: B input {ins[1]} not in {want_b}"
        elif ins:
            rows, cols = ins[0]
            if cols != k or (rows != n and not node.slice_rows) or rows < n:
                return f"node {node.id}: input {ins[0]} incompatible with dims {node.dims}"
    elif node.kind is OpKind.ADD:
        if len(ins) != 2 or ins[0] != ins[1] or ins[0] != node.out_shape:
            return f"node {node.id}: Add inputs {ins} must both equal {node.out_shape}"
    elif node.kind is OpKind.SPLIT:
        rows, cols = node.out_shape
        if ins and ins[0] != (rows, 3 * cols):
            return f"node {node.id}: Split input {ins[0]} != {(rows, 3 * cols)}"
    elif ins and ins[0] != node.out_shape:
        return f"node {node.id}: input {ins[0]} != output {node.out_shape}"
    return None


def reference_dag_faults(nodes) -> list[str]:
    """Every fault the two-pass validation finds, in the order it checked them.

    It raised the first: an input not listed before its node, in node order;
    then duplicate ids; then the first shape fault, each node's inputs read
    from the last node of their id.
    """
    faults, by_id = [], {}
    for node in nodes:
        faults += [f"node {node.id}: input {src!r} is unknown or listed after it"
                   for src in node.inputs if src not in by_id]
        by_id[node.id] = node
    if len(by_id) != len(nodes):
        faults.append("duplicate node ids")
    for node in nodes:
        if all(src in by_id for src in node.inputs):
            fault = reference_shape_fault(node, [by_id[i].out_shape for i in node.inputs])
            if fault is not None:
                faults.append(fault)
    return faults


def _raised(fn, *args, **kwargs):
    """``(result, None)``, or ``(None, message)`` when ``fn`` raises ``SchemaError``."""
    try:
        return fn(*args, **kwargs), None
    except SchemaError as exc:
        return None, str(exc)


def _near(values):
    """Each value moved by -1, 0 or +1, at most one of them moved."""
    return st.tuples(st.integers(0, len(values) - 1), st.integers(-1, 1)).map(
        lambda move: tuple(v + move[1] * (i == move[0]) for i, v in enumerate(values)))


@st.composite
def perturbed_listings(draw):
    """A built, maybe fused, batch-expanded DAG's nodes and one node's fields
    with one field changed."""
    spec, hw = draw(small_specs_and_boards())
    dag = build_dag(spec)
    if draw(st.booleans(), label="fuse"):
        dag = fuse_qkv(dag, hw)
    dag = batch_expand(dag, draw(st.integers(1, 3), label="batch"))
    nodes = list(dag.nodes)
    at = draw(st.integers(0, len(nodes) - 1), label="node")
    node = nodes[at]
    ids = [n.id for n in nodes] + ["zz"]
    name = draw(st.sampled_from(NODE_FIELDS), label="field")
    choices = {
        "id": st.sampled_from(ids),
        "kind": st.sampled_from(list(OpKind)),
        "inputs": st.one_of(st.lists(st.sampled_from(ids), max_size=3).map(tuple),
                            st.just(node.inputs[::-1])),
        "out_shape": _near(node.out_shape),
        "dims": st.one_of(st.none(), _near(node.dims or (1, 1, 1))),
        "head_scoped": st.booleans(),
        "heads": st.integers(0, node.heads + 1),
        "work_elems": st.integers(0, 99),
        "slice_rows": st.booleans(),
    }
    fields = dict(vars(node), **{name: draw(choices[name], label=name)})
    return nodes, at, fields


@settings(max_examples=1500)
@given(perturbed_listings())
def test_validation_raises_exactly_when_the_reference_does(case):
    """Node checks match the reference message for message; a DAG is rejected
    exactly when the reference finds a fault, with its message when it finds one."""
    nodes, at, fields = case
    node, error = _raised(OpNode, **fields)
    assert error == reference_node_error(fields)
    if error is not None:
        return
    nodes[at] = node
    faults = reference_dag_faults(nodes)
    _, error = _raised(Dag, tuple(nodes))
    assert (error is None) == (not faults)
    if len(faults) == 1:
        assert error == faults[0]
    elif faults and "duplicate node ids" not in faults:
        # The one pass reports the first node with a fault; the reference
        # reported input faults before shape faults.
        assert error in faults


def test_merged_pass_reports_the_first_faulty_node():
    """An earlier shape fault now comes before a later input fault."""
    nodes = (OpNode("a", OpKind.MATMUL, (), (4, 8), dims=(4, 2, 8)),
             OpNode("g", OpKind.GELU, ("a",), (4, 9)),
             OpNode("h", OpKind.GELU, ("zz",), (4, 9)))
    assert reference_dag_faults(nodes) == [
        "node h: input 'zz' is unknown or listed after it",
        "node g: input (4, 8) != output (4, 9)"]
    with pytest.raises(SchemaError, match=r"^node g: input \(4, 8\) != output \(4, 9\)$"):
        Dag(nodes)


def test_head_scoped_b_input_message_names_both_shapes():
    nodes = (OpNode("q", OpKind.MATMUL, (), (4, 6), dims=(4, 2, 6)),
             OpNode("v", OpKind.MATMUL, (), (4, 5), dims=(4, 2, 5)),
             OpNode("s", OpKind.MATMUL, ("q", "v"), (4, 12), dims=(4, 2, 4), head_scoped=True,
                    heads=3))
    (fault,) = reference_dag_faults(nodes)
    with pytest.raises(SchemaError) as exc:
        Dag(nodes)
    assert str(exc.value) == fault == "node s: B input (4, 5) not in {(4, 6), (4, 12)}"


@pytest.mark.parametrize("cls,args,changed", [
    (OpNode, ("a", OpKind.MATMUL, ("x",), (4, 8), (4, 2, 8), False, 1, 0, True), {"id": "b"}),
    (OpNode, ("s", OpKind.SOFTMAX, ("x",), (4, 12), None, True, 3), {"work_elems": 7}),
    (MatmulInfo, ("a", 4, 2, 8, 3, True, 192), {"m": 9}),
])
def test_frozen_dataclass_behaviour_is_kept(cls, args, changed):
    obj, same = cls(*args), cls(*args)
    names = [f.name for f in dataclasses.fields(cls)]
    assert vars(obj) == dict(zip(names, (getattr(obj, n) for n in names)))
    assert obj == same and hash(obj) == hash(same) and obj is not same
    assert repr(obj) == f"{cls.__name__}(" + ", ".join(
        f"{n}={getattr(obj, n)!r}" for n in names) + ")"
    moved = replace(obj, **changed)
    assert moved != obj and all(getattr(moved, n) == getattr(obj, n)
                                for n in names if n not in changed)
    assert dataclasses.astuple(replace(moved, **{n: getattr(obj, n) for n in changed})) == \
        dataclasses.astuple(obj)
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(obj, name, getattr(obj, name))
    with pytest.raises(FrozenInstanceError):
        obj.extra = 1


def test_node_defaults_and_checks_through_replace():
    node = OpNode("g", OpKind.GELU, ("a",), (3, 5))
    assert (node.inputs, node.dims, node.head_scoped, node.heads, node.work_elems,
            node.slice_rows) == (("a",), None, False, 1, 15, False)
    assert OpNode("m", OpKind.MATMUL, dims=(1, 2, 3)).out_shape == (1, 1)
    with pytest.raises(SchemaError, match=r"^node g: dims only valid on MatMul nodes$"):
        replace(node, dims=(3, 5, 5))
    with pytest.raises(SchemaError, match=r"^node g: heads must be >= 1$"):
        replace(node, heads=0)
    with pytest.raises(TypeError):
        OpNode("g", OpKind.GELU, bogus=1)
