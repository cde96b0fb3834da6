"""Tests for parameter application, index completion, and symbol scoping."""

import pytest

from tegi.errors import CompletionMismatchError
from tegi.symexpr import Sym, add, as_int, cos, differentiate, integer, mul, neg, sin, symbol
from tegi.tensor import TensorValue, attach_indices, down, tensor, up
from tegi.application import (
    INVERTED,
    SCALAR,
    TENSOR,
    apply_with_kinds,
    complete_omitted_indices,
    fresh_symbol,
    with_symbols_scope,
)

from oracles import to_nested

I, J = Sym("i"), Sym("j")
R, TH, PH = symbol("r"), symbol("θ"), symbol("φ")


def kernel_min(a, b):
    return a if as_int(a) <= as_int(b) else b


class TestApplyScalar:
    def test_plain_scalars(self):
        # [TRIVIAL] rank-0 arguments mean plain application
        got = apply_with_kinds(kernel_min, [SCALAR, SCALAR], [integer(2), integer(5)])
        assert got == integer(2)

    def test_min_distinct_labels(self):
        # [PAPER] (min [|1 2 3|]_i [|10 20 30|]_j)
        a = attach_indices(tensor([1, 2, 3]), [down(I)])
        b = attach_indices(tensor([10, 20, 30]), [down(J)])
        got = apply_with_kinds(kernel_min, [SCALAR, SCALAR], [a, b])
        assert got.indices == (down(I), down(J))
        assert to_nested(got) == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]

    def test_min_shared_label(self):
        # [PAPER] (min [|1 2 3|]_i [|10 20 30|]_i)
        a = attach_indices(tensor([1, 2, 3]), [down(I)])
        b = attach_indices(tensor([10, 20, 30]), [down(I)])
        got = apply_with_kinds(kernel_min, [SCALAR, SCALAR], [a, b])
        assert got == attach_indices(tensor([1, 2, 3]), [down(I)])

    def test_mixed_variance_product(self):
        # [PAPER: dot-figure route] u~i * v_i -> [|10 40 90|]~_i
        u = attach_indices(tensor([1, 2, 3]), [up(I)])
        v = attach_indices(tensor([10, 20, 30]), [down(I)])
        got = apply_with_kinds(mul, [SCALAR, SCALAR], [u, v])
        assert to_nested(got) == [10, 40, 90]
        assert got.indices[0].variance == 0

    def test_scalar_tensor_mix(self):
        t = attach_indices(tensor([1, 2]), [down(I)])
        got = apply_with_kinds(mul, [SCALAR, SCALAR], [integer(10), t])
        assert to_nested(got) == [10, 20]

    def test_shared_labels_call_the_kernel_once_per_component(self):
        # (+ A~i_j_k_l B~i_j_k_l) at n = 3: 81 results, not the 3**8 pairs
        # of the outer product
        k, l = Sym("k"), Sym("l")
        marks = [up(I), down(J), down(k), down(l)]
        a = attach_indices(tensor([[[[symbol(f"a{p}{q}{r}{s}") for s in range(3)] for r in range(3)]
                                    for q in range(3)] for p in range(3)]), marks)
        b = attach_indices(tensor([[[[symbol(f"b{p}{q}{r}{s}") for s in range(3)] for r in range(3)]
                                    for q in range(3)] for p in range(3)]), marks)
        calls = []

        def counted_add(x, y):
            calls.append((x, y))
            return add(x, y)

        got = apply_with_kinds(counted_add, [SCALAR, SCALAR], [a, b])
        assert len(calls) == 81
        assert got.indices == tuple(marks)
        assert got.components == tuple(add(x, y) for x, y in zip(a.components, b.components))


class TestApplyTensor:
    def test_raw_arguments(self):
        # [TRIVIAL] tensor parameters see the marked value unchanged
        t = attach_indices(tensor([1, 2]), [down(I)])
        seen = []
        apply_with_kinds(lambda v: seen.append(v), [TENSOR], [t])
        assert seen == [t]


class TestApplyInverted:
    def test_flip_before_map(self):
        u = attach_indices(tensor([1, 2]), [down(I)])
        got = apply_with_kinds(neg, [INVERTED], [u])
        assert got.indices == (up(I),)
        assert to_nested(got) == [-1, -2]

    def test_scalar_passthrough(self):
        assert apply_with_kinds(neg, [INVERTED], [integer(3)]) == integer(-3)  # [TRIVIAL]

    def test_partial_derivative_matrix(self):
        # [PAPER] (∂/∂ [|(* r (sin θ)) (* r (cos θ))|]_i [|r θ|]_j) -> _i~j
        f = attach_indices(tensor([mul(R, sin(TH)), mul(R, cos(TH))]), [down(I)])
        x = attach_indices(tensor([R, TH]), [down(J)])
        got = apply_with_kinds(differentiate, [SCALAR, INVERTED], [f, x])
        assert got.indices == (down(I), up(J))
        assert got.components == (
            sin(TH),
            mul(R, cos(TH)),
            cos(TH),
            mul(integer(-1), mul(R, sin(TH))),
        )

    def test_partial_derivative_shared_label(self):
        # [PAPER] same with x marked _i -> [|(sin θ) (* -1 r (sin θ))|]~_i
        f = attach_indices(tensor([mul(R, sin(TH)), mul(R, cos(TH))]), [down(I)])
        x = attach_indices(tensor([R, TH]), [down(I)])
        got = apply_with_kinds(differentiate, [SCALAR, INVERTED], [f, x])
        assert got.indices[0].variance == 0
        assert got.components == (sin(TH), mul(integer(-1), mul(R, sin(TH))))


class TestCompletion:
    def test_scalar_argument_unchanged(self):
        args, gens = complete_omitted_indices([integer(5)], [SCALAR])
        assert args == [integer(5)] and gens == []  # [TRIVIAL]

    def test_fully_marked_unchanged(self):
        t = attach_indices(tensor([1, 2]), [down(I)])
        args, gens = complete_omitted_indices([t], [SCALAR])
        assert args == [t] and gens == []

    def test_shared_mode_reuses_symbols(self):
        # [PAPER analog] (+ A B) over 2-forms completes to A_t1_t2 B_t1_t2
        a = tensor([[1, 2], [3, 4]])
        b = tensor([[5, 6], [7, 8]])
        args, gens = complete_omitted_indices([a, b], [SCALAR, SCALAR])
        assert len(gens) == 2
        assert args[0].indices == args[1].indices
        assert all(m.variance == -1 for m in args[0].indices)
        assert [m.label for m in args[0].indices] == gens

    def test_shared_mode_degree_mismatch(self):
        with pytest.raises(CompletionMismatchError):
            complete_omitted_indices(
                [tensor([1, 2]), tensor([[1, 2], [3, 4]])], [SCALAR, SCALAR]
            )

    def test_distinct_mode_fresh_per_argument(self):
        # [PAPER analog] (wedge A B) completes to A_t1_t2 B_t3_t4
        a = tensor([[1, 2], [3, 4]])
        b = tensor([[5, 6], [7, 8]])
        args, gens = complete_omitted_indices([a, b], [SCALAR, SCALAR], distinct=True)
        assert len(gens) == 4
        assert [m.label for m in args[0].indices] == gens[:2]
        assert [m.label for m in args[1].indices] == gens[2:]

    def test_distinct_mode_unequal_degrees(self):
        args, gens = complete_omitted_indices(
            [tensor([1, 2]), tensor([[1, 2], [3, 4]])], [SCALAR, SCALAR], distinct=True
        )
        assert len(gens) == 3

    def test_tensor_kind_passes_untouched_unless_distinct(self):
        # (f T A) with f's first parameter %: only A is completed
        t = tensor([[1, 2], [3, 4]])
        a = tensor([5, 6])
        args, gens = complete_omitted_indices([t, a], [TENSOR, SCALAR])
        assert args[0] is t and len(gens) == 1
        assert [m.label for m in args[1].indices] == gens
        args, gens = complete_omitted_indices([t, a], [TENSOR, SCALAR], distinct=True)
        assert len(gens) == 3
        assert [m.label for m in args[0].indices] == gens[:2]

    def test_partial_marks_complete_form_axes_only(self):
        t = TensorValue((2, 2), tuple(integer(v) for v in (1, 2, 3, 4)), (down(I),))
        args, gens = complete_omitted_indices([t], [SCALAR])
        assert len(gens) == 1
        assert args[0].indices[0] == down(I)
        assert args[0].indices[1].label == gens[0]


class TestWithSymbolsScope:
    def test_worked_transpose_example(self):
        # [PAPER] (with-symbols {j} [|[|1 2|] [|3 4|]|]_j_i) -> [|[|1 3|] [|2 4|]|]_i
        jgen = fresh_symbol("j")
        t = attach_indices(tensor([[1, 2], [3, 4]]), [down(jgen), down(I)])
        got = with_symbols_scope([jgen], t)
        assert got.indices == (down(I),)
        assert to_nested(got) == [[1, 3], [2, 4]]

    def test_absent_symbols_no_change(self):
        t = attach_indices(tensor([1, 2]), [down(I)])
        assert with_symbols_scope([fresh_symbol("k")], t) == t  # [TRIVIAL]

    def test_scalar_result_unchanged(self):
        assert with_symbols_scope([fresh_symbol("k")], integer(7)) == integer(7)

    def test_declaration_order_fixes_axis_order(self):
        # [DERIVED] marks [_t2 ~t1] scoped by [t1, t2]: axes become (t1, t2)
        t1, t2 = fresh_symbol("t1"), fresh_symbol("t2")
        t = attach_indices(tensor([[1, 2], [3, 4]]), [down(t2), up(t1)])
        got = with_symbols_scope([t1, t2], t)
        assert got.indices == ()
        # got[c, a] = t[a, c]
        assert to_nested(got) == [[1, 3], [2, 4]]

    def test_generated_axes_precede_existing_form_axes(self):
        # rank 3: marks [_g], one named axis, existing form axis stays last
        g = fresh_symbol("g")
        t = TensorValue(
            (2, 3, 4),
            tuple(integer(v) for v in range(24)),
            (down(g), down(I)),
        )
        got = with_symbols_scope([g], t)
        assert got.indices == (down(I),)
        assert got.shape == (3, 2, 4)


class TestExteriorDerivativePipeline:
    def test_derivative_axis_first(self):
        # [DERIVED] d([|0 (cos θ)|]) with x = [|θ φ|]
        a = tensor([integer(0), cos(TH)])
        x = tensor([TH, PH])
        args, gens = complete_omitted_indices([x, a], [SCALAR, SCALAR], distinct=True)
        xc, ac = args
        got = apply_with_kinds(differentiate, [SCALAR, INVERTED], [ac, xc])
        got = with_symbols_scope(gens, got)
        assert got.indices == ()
        assert got.shape == (2, 2)
        # rows are the derivative axis: d/dθ then d/dφ
        assert got.components == (integer(0), mul(integer(-1), sin(TH)), integer(0), integer(0))


def test_fresh_symbol_uniqueness():
    a, b = fresh_symbol("t"), fresh_symbol("t")
    assert a != b and a.name == b.name == "t" and a.uid > 0  # [TRIVIAL]
