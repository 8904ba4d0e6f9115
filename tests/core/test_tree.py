"""Collection tree tests: Algorithm 1 semantics."""

import pickle

from hypothesis import given
from hypothesis import strategies as st

from repro.core.tree import CollectedInstruction, CollectionTree, TreeNode


def _ci(dex_pc: int, units: tuple, symbol=None) -> CollectedInstruction:
    return CollectedInstruction(dex_pc, units, None, symbol)


def _tree() -> CollectionTree:
    return CollectionTree("Lt/X;->m()V", 4, 1, 1)


_NOP = (0x0000,)
_CONST_A = (0x0112,)  # const/4 v1, 0
_CONST_B = (0x1112,)  # const/4 v1, 1
_CONST_C = (0x2112,)  # const/4 v1, 2
_RET = (0x000E,)


class TestBaselineRecording:
    def test_first_execution_goes_to_root(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(1, _RET))
        assert [c.dex_pc for c in tree.root.il] == [0, 1]
        assert tree.root.iim == {0: 0, 1: 1}

    def test_repeat_same_instruction_not_recorded(self):
        tree = _tree()
        for _ in range(5):
            tree.observe(_ci(0, _CONST_A))
        assert len(tree.root.il) == 1

    def test_loop_keeps_code_size_stable(self):
        tree = _tree()
        for _round in range(10):
            tree.observe(_ci(0, _CONST_A))
            tree.observe(_ci(1, _NOP))
            tree.observe(_ci(2, _RET))
        assert tree.instruction_count() == 3

    def test_branchy_execution_records_first_visit_order(self):
        tree = _tree()
        # dex_pc order of execution: 0, 5, 2 (branch back).
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(5, _NOP))
        tree.observe(_ci(2, _RET))
        assert [c.dex_pc for c in tree.root.il] == [0, 5, 2]
        assert tree.root.iim[5] == 1  # IL index differs from dex_pc


class TestDivergence:
    def test_modified_instruction_forks_child(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(0, _CONST_B))
        assert len(tree.root.children) == 1
        child = tree.root.children[0]
        assert child.sm_start == 0
        assert child.il[0].units == _CONST_B
        assert tree.current is child

    def test_convergence_returns_to_parent(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(1, _NOP))
        tree.observe(_ci(0, _CONST_B))  # diverge
        tree.observe(_ci(1, _NOP))  # same as parent -> converge
        child = tree.root.children[0]
        assert child.sm_end == 1
        assert tree.current is tree.root

    def test_paper_code1_shape(self):
        """Listing 1: a root plus one single-instruction child."""
        tree = _tree()
        invoke_normal = (0x106E, 5, 0x0003)
        invoke_sink = (0x106E, 6, 0x0003)
        invoke_tamper = (0x206E, 7, 0x0013)
        loop = [
            _ci(0, (0x0070,)),  # source
            _ci(3, _CONST_A),
        ]
        for collected in loop:
            tree.observe(collected)
        # iteration 1: normal(a); tamper(0)
        tree.observe(_ci(8, invoke_normal))
        tree.observe(_ci(11, invoke_tamper))
        # iteration 2: sink(a) -- divergence; tamper(1) -- convergence
        tree.observe(_ci(8, invoke_sink))
        tree.observe(_ci(11, invoke_tamper))
        assert tree.node_count() == 2
        child = tree.root.children[0]
        assert child.sm_start == 8
        assert child.sm_end == 11
        assert len(child.il) == 1  # "the child node contains only one instruction"

    def test_multi_layer_nesting(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(0, _CONST_B))  # layer 1
        tree.observe(_ci(0, _CONST_C))  # layer 2: B != C inside child
        assert tree.root.depth() == 2
        layer1 = tree.root.children[0]
        layer2 = layer1.children[0]
        assert layer2.il[0].units == _CONST_C

    def test_sibling_divergences(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        tree.observe(_ci(2, _NOP))
        tree.observe(_ci(0, _CONST_B))  # diverge at 0
        tree.observe(_ci(2, _NOP))  # converge
        tree.observe(_ci(0, _CONST_A))  # back to baseline (same as root)
        tree.observe(_ci(4, _RET))  # new root instruction
        assert len(tree.root.children) == 1
        assert {c.dex_pc for c in tree.root.il} == {0, 2, 4}


class TestSerialization:
    def test_dict_roundtrip(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A, "Lx;->y()V"))
        tree.observe(_ci(0, _CONST_B))
        tree.observe(_ci(3, _RET))
        again = CollectionTree.from_dict(tree.to_dict())
        assert again.fingerprint() == tree.fingerprint()
        assert again.root.il[0].symbol == "Lx;->y()V"

    def test_fingerprint_distinguishes_trees(self):
        t1, t2 = _tree(), _tree()
        t1.observe(_ci(0, _CONST_A))
        t2.observe(_ci(0, _CONST_B))
        assert t1.fingerprint() != t2.fingerprint()

    def test_fingerprint_equal_for_identical(self):
        t1, t2 = _tree(), _tree()
        for t in (t1, t2):
            t.observe(_ci(0, _CONST_A))
            t.observe(_ci(1, _RET))
        assert t1.fingerprint() == t2.fingerprint()

    def test_digest_ignores_object_sharing(self):
        # Interned records share one units tuple, decoded or unpickled
        # ones do not; the digest must not notice either way.
        t1, t2 = _tree(), _tree()
        t1.observe(_ci(0, _CONST_A))
        t1.observe(_ci(1, _RET))
        t2.observe(_ci(0, tuple(list(_CONST_A))))
        t2.observe(_ci(1, _RET))
        assert t1.digest() == t2.digest()
        again = pickle.loads(pickle.dumps(t1))
        assert again.fingerprint() == t1.fingerprint()
        assert again.digest() == t1.digest()
        other = _tree()
        other.observe(_ci(0, _CONST_B))
        assert other.digest() != t1.digest()

    def test_cached_identity_follows_later_observations(self):
        tree = _tree()
        tree.observe(_ci(0, _CONST_A))
        before = tree.digest()
        tree.observe(_ci(1, _RET))
        assert tree.digest() != before
        assert tree.fingerprint() == \
            CollectionTree.from_dict(tree.to_dict()).fingerprint()

    @given(st.lists(st.tuples(st.integers(0, 8),
                              st.sampled_from([_CONST_A, _CONST_B, _CONST_C])),
                    max_size=40))
    def test_roundtrip_any_observation_sequence(self, events):
        tree = _tree()
        for dex_pc, units in events:
            tree.observe(_ci(dex_pc, units))
        again = CollectionTree.from_dict(tree.to_dict())
        assert again.fingerprint() == tree.fingerprint()

    @given(st.lists(st.tuples(st.integers(0, 6),
                              st.sampled_from([_CONST_A, _CONST_B])),
                    max_size=60))
    def test_invariant_no_duplicate_pc_in_node(self, events):
        """Within one node, each dex_pc appears at most once in IL."""
        tree = _tree()
        for dex_pc, units in events:
            tree.observe(_ci(dex_pc, units))

        def check(node: TreeNode):
            pcs = [c.dex_pc for c in node.il]
            assert len(pcs) == len(set(pcs))
            for child in node.children:
                check(child)

        check(tree.root)
