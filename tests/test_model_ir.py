import json
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_tiny_dag, small_specs_and_boards, tiny_model, toy_hw
from vitmap.errors import SchemaError
from vitmap.model_ir import (
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
