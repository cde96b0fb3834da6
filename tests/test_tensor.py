"""Tests for tensor values, index attachment, and the reduction engine.

Tags: [PAPER] values shown in the worked examples, [DERIVED] from an
independent loop-nest oracle in this file, [TRIVIAL] direct consequences.
"""

import itertools
import random

import pytest

from tegi.errors import (
    IndexArityError,
    IndexBoundsError,
    IndexLabelError,
    ShapeMismatchError,
)
from tegi.symexpr import Sym, add, integer, mul
from tegi.tensor import (
    Dummy,
    IndexMark,
    TensorValue,
    attach_indices,
    contract,
    down,
    find_identical_pairs,
    flip_indices,
    reduce_indices,
    tensor,
    tensor_map,
    transpose,
    up,
    updown,
)
from tegi.tensor import _remove_at, _update_at, _variance_at

from oracles import to_nested

I, J, K = Sym("i"), Sym("j"), Sym("k")

M3 = tensor([[11, 12, 13], [21, 22, 23], [31, 32, 33]])
T222 = tensor([[[1, 2], [3, 4]], [[5, 6], [7, 8]]])


def nested_select(data, coords):
    """Independent row-major selection oracle (1-based coords)."""
    for c in coords:
        data = data[c - 1]
    return data


class TestAttachLiterals:
    def test_row(self):
        # [PAPER] M_2 -> [|21 22 23|]
        got = attach_indices(M3, [down(2)])
        assert got == tensor([21, 22, 23])
        assert got.indices == ()

    def test_component(self):
        # [PAPER] M_2_1 -> 21
        assert attach_indices(M3, [down(2), down(1)]) == integer(21)

    def test_superscript_literals(self):
        # [PAPER] M~1~1 -> 11
        assert attach_indices(M3, [up(1), up(1)]) == integer(11)

    def test_out_of_bounds(self):
        with pytest.raises(IndexBoundsError):
            attach_indices(M3, [down(4)])
        with pytest.raises(IndexBoundsError):
            attach_indices(M3, [down(0)])

    def test_too_many_marks(self):
        with pytest.raises(IndexArityError):
            attach_indices(tensor([1, 2]), [down(I), down(J), down(K)])

    def test_mixed_literal_and_named(self):
        # [DERIVED: literal selects its own axis, named binds the rest]
        got = attach_indices(M3, [down(I), down(2)])
        assert got == TensorValue((3,), tuple(integer(v) for v in (12, 22, 32)), (down(I),))

    def test_property_literals_match_oracle(self):
        rng = random.Random(7)
        data = [[[rng.randint(0, 99) for _ in range(4)] for _ in range(3)] for _ in range(2)]
        t = tensor(data)
        for _ in range(200):
            coords = (rng.randint(1, 2), rng.randint(1, 3), rng.randint(1, 4))
            got = attach_indices(t, [down(c) for c in coords])
            assert got == integer(nested_select(data, coords))


class TestReduction:
    def test_named_marks_kept(self):
        # [PAPER] M_i_j stays a marked matrix
        got = attach_indices(M3, [down(I), down(J)])
        assert got.indices == (down(I), down(J))
        assert to_nested(got) == to_nested(M3)

    def test_subscript_diagonal(self):
        # [PAPER] M_i_i -> [|11 22 33|]_i
        got = attach_indices(M3, [down(I), down(I)])
        assert got == TensorValue((3,), tuple(integer(v) for v in (11, 22, 33)), (down(I),))

    def test_rank3_outer_pair(self):
        # [PAPER] T_i_j_i -> [|[|1 3|] [|6 8|]|]_i_j
        got = attach_indices(T222, [down(I), down(J), down(I)])
        want = attach_indices(tensor([[1, 3], [6, 8]]), [down(I), down(J)])
        assert got == want

    def test_rank3_triple(self):
        # [PAPER] T_i_i_i -> [|1 8|]_i
        got = attach_indices(T222, [down(I), down(I), down(I)])
        assert got == TensorValue((2,), (integer(1), integer(8)), (down(I),))

    def test_rank3_superscripts(self):
        # [PAPER] T~i~j~i -> [|[|1 3|] [|6 8|]|]~i~j
        got = attach_indices(T222, [up(I), up(J), up(I)])
        assert got.indices == (up(I), up(J))
        assert to_nested(got) == [[1, 3], [6, 8]]

    def test_mixed_variance_supersubscript(self):
        # [PAPER] M~i_i -> [|11 22 33|]~_i
        got = attach_indices(M3, [up(I), down(I)])
        assert got == TensorValue((3,), tuple(integer(v) for v in (11, 22, 33)), (updown(I),))

    def test_triple_mixed(self):
        # [PAPER] T~i~i_i -> [|1 8|]~_i
        got = attach_indices(T222, [up(I), up(I), down(I)])
        assert got == TensorValue((2,), (integer(1), integer(8)), (updown(I),))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            attach_indices(tensor([[1, 2], [3, 4], [5, 6]]), [down(I), down(I)])

    def test_dummies_never_reduce(self):
        got = attach_indices(M3, [down(Dummy(1)), down(Dummy(2))])
        assert got.shape == (3, 3)
        assert len(got.indices) == 2

    def test_reduce_idempotent_random(self):
        rng = random.Random(11)
        labels = [I, J, K]
        for _ in range(200):
            rank = rng.randint(1, 4)
            shape = (2,) * rank
            comps = tuple(integer(rng.randint(-9, 9)) for _ in range(2**rank))
            marks = tuple(
                IndexMark(rng.choice((1, -1)), rng.choice(labels)) for _ in range(rank)
            )
            t = reduce_indices(TensorValue(shape, comps, marks))
            assert reduce_indices(t) == t
            named = [m.label for m in t.indices]
            assert len(named) == len(set(named))


class TestHelpers:
    def test_pairs_paper(self):
        # [PAPER] e([{i,1},{j,-1},{i,1}]) = [{1,3}]
        assert find_identical_pairs([up(I), down(J), up(I)]) == [(1, 3)]

    def test_pairs_all(self):
        marks = [up(I), up(I), down(I)]
        assert find_identical_pairs(marks) == [(1, 2), (1, 3), (2, 3)]

    def test_pairs_dummies(self):
        assert find_identical_pairs([down(Dummy(5)), down(Dummy(5))]) == []

    def test_variance_at(self):
        # [PAPER] p(2, [{i,1},{j,-1}]) = -1
        assert _variance_at(2, (up(I), down(J))) == -1

    def test_remove_at(self):
        # [PAPER] remove(2, [{i,1},{j,-1}]) = [{i,1}]
        assert _remove_at(2, (up(I), down(J))) == (up(I),)

    def test_update_at(self):
        # [PAPER] update(2, 0, [{i,1},{j,-1}]) = [{i,1},{j,0}]
        assert _update_at(2, 0, (up(I), down(J))) == (up(I), updown(J))


def diag(k, j, t):
    """The paper's diag(k, j, t), through index reduction: axes k and j share a label."""
    marks = [up(Sym(f"a{n}")) for n in range(t.rank)]
    marks[j - 1] = marks[k - 1]
    return reduce_indices(TensorValue(t.shape, t.components, tuple(marks)))


class TestDiag:
    def test_matrix(self):
        # [PAPER] diag(1,2,[|[|11 12|] [|21 22|]|]) = [|11 22|]
        got = diag(1, 2, tensor([[11, 12], [21, 22]]))
        assert to_nested(got) == [11, 22]

    def test_rank3_first_last(self):
        # [PAPER] diag(1,3,T) = [|[|1 3|] [|6 8|]|]
        got = diag(1, 3, T222)
        assert to_nested(got) == [[1, 3], [6, 8]]

    def test_oracle_random(self):
        rng = random.Random(3)
        data = [[[rng.randint(0, 99) for _ in range(2)] for _ in range(3)] for _ in range(2)]
        got = diag(1, 3, tensor(data))
        want = [[data[a][b][a] for b in range(3)] for a in range(2)]
        assert to_nested(got) == want


class TestContract:
    def test_supersub_sum(self):
        # [PAPER] (contract + [|11 22 33|]~_i) -> 66
        t = TensorValue((3,), tuple(integer(v) for v in (11, 22, 33)), (updown(I),))
        assert contract(add, t) == integer(66)

    def test_scalar_passthrough(self):
        assert contract(add, integer(5)) == integer(5)  # [TRIVIAL]

    def test_named_marks_untouched(self):
        t = attach_indices(M3, [down(I), down(J)])
        assert contract(add, t) == t

    def test_partial_contraction(self):
        # [DERIVED: fold only the supersubscript axis]
        t = TensorValue(
            (2, 2),
            tuple(integer(v) for v in (1, 2, 3, 4)),
            (updown(I), down(J)),
        )
        got = contract(add, t)
        assert got == TensorValue((2,), (integer(4), integer(6)), (down(J),))

    def test_multiplicative_fold(self):
        t = TensorValue((3,), tuple(integer(v) for v in (2, 3, 4)), (updown(I),))
        assert contract(mul, t) == integer(24)  # [TRIVIAL]


class TestFlipTranspose:
    def test_flip(self):
        t = TensorValue(
            (2, 2, 2),
            tuple(integer(v) for v in range(8)),
            (up(I), down(J), updown(K)),
        )
        flipped = flip_indices(t)
        assert flipped.indices == (down(I), up(J), updown(K))
        assert flip_indices(flipped) == t  # involution [TRIVIAL]

    def test_transpose_matrix(self):
        t = attach_indices(tensor([[1, 2], [3, 4]]), [down(J), down(I)])
        got = transpose([I, J], t)
        assert to_nested(got) == [[1, 3], [2, 4]]
        assert got.indices == (down(I), down(J))

    def test_transpose_rank3_oracle(self):
        # [DERIVED] order {i j k} over marks _k_i_j gives T'[a,b,c] = T[c,a,b]
        rng = random.Random(5)
        data = [[[rng.randint(0, 99) for _ in range(2)] for _ in range(2)] for _ in range(2)]
        t = attach_indices(tensor(data), [down(K), down(I), down(J)])
        got = transpose([I, J, K], t)
        want = [[[data[c][a][b] for c in range(2)] for b in range(2)] for a in range(2)]
        assert to_nested(got) == want

    def test_transpose_not_permutation(self):
        t = attach_indices(tensor([[1, 2], [3, 4]]), [down(I), down(J)])
        with pytest.raises(IndexLabelError):
            transpose([I, K], t)
        with pytest.raises(IndexLabelError):
            transpose([I], t)

    def test_transpose_form_axes_stay_trailing(self):
        t = TensorValue(
            (2, 2, 2),
            tuple(integer(v) for v in range(8)),
            (down(I), down(J)),
        )
        got = transpose([J, I], t)
        assert got.indices == (down(J), down(I))
        # [DERIVED: got[j, i, c] = old[i, j, c], so slot (1,2) holds old (2,1)]
        assert to_nested(got)[0][1] == [4, 5]


class TestTensorMap:
    def test_scalar_results_keep_marks(self):
        t = attach_indices(tensor([1, 2, 3]), [down(I)])
        got = tensor_map(lambda x: mul(x, integer(10)), t)
        assert got == attach_indices(tensor([10, 20, 30]), [down(I)])

    def test_non_tensor_argument(self):
        assert tensor_map(lambda x: mul(x, x), integer(3)) == integer(9)

    def test_hoist_distinct_label(self):
        # [DERIVED] inner marked results hoist to the end; outer product
        v = attach_indices(tensor([10, 20, 30]), [down(J)])
        t = attach_indices(tensor([1, 2]), [down(I)])
        got = tensor_map(lambda x: tensor_map(lambda y: mul(x, y), v), t)
        assert got.indices == (down(I), down(J))
        assert to_nested(got) == [[10, 20, 30], [20, 40, 60]]

    def test_hoist_shared_label_collapses(self):
        # [PAPER: componentwise product route of the dot function]
        v = attach_indices(tensor([10, 20, 30]), [down(I)])
        t = attach_indices(tensor([1, 2, 3]), [down(I)])
        got = tensor_map(lambda x: tensor_map(lambda y: mul(x, y), v), t)
        assert got == attach_indices(tensor([10, 40, 90]), [down(I)])

    def test_hoist_unmarked_inner(self):
        t = tensor([1, 2])
        got = tensor_map(lambda x: tensor([x, x]), t)
        assert got.shape == (2, 2)
        assert to_nested(got) == [[1, 1], [2, 2]]

    def test_inconsistent_inner_shapes(self):
        t = tensor([1, 2])
        with pytest.raises(ShapeMismatchError):
            tensor_map(lambda x: tensor([x] * (1 + (to_nested_int(x)))), t)


def to_nested_int(e):
    from tegi.symexpr import as_int

    return as_int(e)


class TestPrinting:
    def test_matrix_with_marks(self):
        got = attach_indices(M3, [down(I), down(J)])
        assert str(got) == "[|[|11 12 13|] [|21 22 23|] [|31 32 33|]|]_i_j"

    def test_supersubscript(self):
        t = TensorValue((3,), tuple(integer(v) for v in (11, 22, 33)), (updown(I),))
        assert str(t) == "[|11 22 33|]~_i"

    def test_superscripts(self):
        got = attach_indices(T222, [up(I), up(J), up(I)])
        assert str(got) == "[|[|1 3|] [|6 8|]|]~i~j"

    def test_unmarked_vector(self):
        assert str(tensor([21, 22, 23])) == "[|21 22 23|]"

    def test_form_axes_unmarked(self):
        t = TensorValue((2, 2), tuple(integer(v) for v in (1, 2, 3, 4)), (down(I),))
        assert str(t) == "[|[|1 2|] [|3 4|]|]_i"


class TestDotProductOracle:
    def test_contract_of_product_matches_loop_sum(self):
        # [DERIVED: Sum-style oracle] contraction of u~i v_i
        rng = random.Random(13)
        for _ in range(100):
            n = rng.randint(1, 5)
            u = [rng.randint(-9, 9) for _ in range(n)]
            v = [rng.randint(-9, 9) for _ in range(n)]
            ut = attach_indices(tensor(u), [up(I)])
            vt = attach_indices(tensor(v), [down(I)])
            prod = tensor_map(lambda x: tensor_map(lambda y: mul(x, y), vt), ut)
            got = contract(add, prod)
            assert got == integer(sum(a * b for a, b in zip(u, v)))
