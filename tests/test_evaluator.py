"""Tests for the interpreter: environments, application semantics, builtins."""

import re

import pytest

from tegi.errors import (
    ArityError,
    CompletionMismatchError,
    DomainError,
    IndexArityError,
    ShapeMismatchError,
    TegiTypeError,
    UnboundVariableError,
)
from tegi.evaluator import Interpreter, format_value
from tegi.symexpr import Sym, as_int, int_pow, mul, rational, sin, symbol
from tegi.tensor import TensorValue, attach_indices, down, up

from oracles import exterior_d, to_nested


def ev(src):
    return Interpreter().eval_source(src)[-1]


def show(src):
    return format_value(ev(src))


class TestScalarBasics:
    def test_arithmetic(self):
        assert show("(+ 1 2)") == "3"
        assert show("(- 10 4 1)") == "5"
        assert show("(- 3)") == "-3"
        assert show("(* 2 3 4)") == "24"
        assert show("(/ 1 2)") == "(/ 1 2)"

    def test_unbound_is_a_symbol(self):
        # [PAPER] "unbound variables are treated as symbols"
        assert show("θ") == "θ"
        assert show("(* r r)") == "r^2"
        assert show("(sin θ)^2") == "(sin θ)^2"

    def test_if_and_less_than(self):
        assert show("(if (less-than? 1 2) 10 20)") == "10"
        assert ev("(less-than? 3 2)") is False

    def test_if_needs_a_boolean(self):
        with pytest.raises(TegiTypeError):
            ev("(if 1 2 3)")

    def test_less_than_rejects_symbols(self):
        with pytest.raises(TegiTypeError):
            ev("(less-than? θ 1)")

    def test_let(self):
        assert show("(let {[$a 2] [$b 3]} (* a b))") == "6"

    def test_strings(self):
        assert ev('"hi"') == "hi"
        assert format_value(ev('"hi"')) == '"hi"'

    def test_booleans_inside_tensors(self):
        assert show("(less-than? [|1 2|]~i [|2 1|]~i)") == "[|#t #f|]~i"


class TestTensorLiterals:
    def test_nested_literal(self):
        assert show("[|[|1 2|] [|3 4|]|]") == "[|[|1 2|] [|3 4|]|]"  # [TRIVIAL]

    @pytest.mark.parametrize(
        "src, got",
        [
            ('[|"a" 1|]', '"a"'),
            ("[|{1 2} {3 4}|]", "{1 2}"),
            ("[|(less-than? 1 2)|]", "#t"),
            ("[|sin|]", "#<function sin>"),
            # a non-scalar next to a tensor element is reported as a non-scalar
            ("[|[|1 2|] {1 2}|]", "{1 2}"),
        ],
    )
    def test_non_scalar_leaf(self, src, got):
        with pytest.raises(TegiTypeError, match=f"^expected a scalar, got {re.escape(got)}$"):
            ev(src)

    @pytest.mark.parametrize(
        "src, message",
        [
            ("[|[|1 2|]_i [|3 4|]_i|]", "tensor components must not carry index marks"),
            ("[|[|1|] 2|]", "mixed scalar and tensor components"),
            ("[|[|1 2|] [|3|]|]", "ragged tensor literal"),
        ],
    )
    def test_shape_errors(self, src, message):
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(message)}$"):
            ev(src)


class TestWorkedReductionExamples:
    M3 = "[|[|11 12 13|] [|21 22 23|] [|31 32 33|]|]"
    T2 = "[|[|[|1 2|] [|3 4|]|] [|[|5 6|] [|7 8|]|]|]"

    def test_integer_indices(self):
        # [PAPER] component access is 1-based
        assert show(f"{self.M3}_2") == "[|21 22 23|]"
        assert show(f"{self.M3}_2_1") == "21"
        assert show(f"{self.M3}~1~1") == "11"

    def test_symbol_indices(self):
        assert show(f"{self.M3}_i_j") == f"{self.M3}_i_j"
        assert show(f"{self.M3}_i_i") == "[|11 22 33|]_i"
        assert show(f"{self.T2}_i_j_i") == "[|[|1 3|] [|6 8|]|]_i_j"
        assert show(f"{self.T2}_i_i_i") == "[|1 8|]_i"
        assert show(f"{self.T2}~i~j~i") == "[|[|1 3|] [|6 8|]|]~i~j"

    def test_supersubscripts(self):
        assert show(f"{self.M3}~i_i") == "[|11 22 33|]~_i"
        assert show(f"{self.T2}~i~i_i") == "[|1 8|]~_i"

    def test_contract(self):
        assert show("(contract + [|11 22 33|]~_i)") == "66"


class TestWorkedFunctionExamples:
    def test_dot(self):
        # [PAPER] the three "." applications
        assert show("(. [|1 2 3|]~i [|10 20 30|]_i)") == "140"
        assert (
            show("(. [|1 2 3|]_i [|10 20 30|]_j)")
            == "[|[|10 20 30|] [|20 40 60|] [|30 60 90|]|]_i_j"
        )
        assert show("(. [|1 2 3|]_i [|10 20 30|]_i)") == "[|10 40 90|]_i"

    def test_min(self):
        # [PAPER] the two min applications
        assert (
            show("(min [|1 2 3|]_i [|10 20 30|]_j)")
            == "[|[|1 1 1|] [|2 2 2|] [|3 3 3|]|]_i_j"
        )
        assert show("(min [|1 2 3|]_i [|10 20 30|]_i)") == "[|1 2 3|]_i"

    def test_partial_derivative(self):
        # [PAPER] the two ∂/∂ polar-coordinate results
        assert (
            show("(∂/∂ [|(* r (sin θ)) (* r (cos θ))|]_i [|r θ|]_j)")
            == "[|[|(sin θ) (* r (cos θ))|] [|(cos θ) (* -1 r (sin θ))|]|]_i~j"
        )
        assert (
            show("(∂/∂ [|(* r (sin θ)) (* r (cos θ))|]_i [|r θ|]_i)")
            == "[|(sin θ) (* -1 r (sin θ))|]~_i"
        )

    def test_with_symbols_contraction(self):
        # Sometimes annotated as 60; that value contradicts the dot-product
        # behaviour shown alongside it (10 + 40 + 90), so the engine says 140.
        got = show("(with-symbols {i} (contract + (* [|1 2 3|]~i [|10 20 30|]_i)))")
        assert got == "140"

    def test_with_symbols_transpose(self):
        # [PAPER] scoping out j shifts it backward, transposing the matrix
        got = show("(with-symbols {j} [|[|1 2|] [|3 4|]|]_j_i)")
        assert got == "[|[|1 3|] [|2 4|]|]_i"


class TestDefines:
    def test_plain_define_allows_any_marks(self):
        out = Interpreter().eval_source("(define $v [|1 2 3|]) v_i v~j")
        assert format_value(out[0]) == "[|1 2 3|]_i"
        assert format_value(out[1]) == "[|1 2 3|]~j"

    def test_signature_defines_are_distinct(self):
        src = """
        (define $g__ [|[|1 0|] [|0 1|]|])
        (define $g~~ [|[|2 0|] [|0 2|]|])
        g_1_1 g~1~1
        """
        out = Interpreter().eval_source(src)
        assert [format_value(v) for v in out] == ["1", "2"]

    def test_signature_mismatch(self):
        with pytest.raises(UnboundVariableError):
            ev("(define $g__ [|[|1 0|] [|0 1|]|]) g~i_j")

    def test_unbound_indexed_reference(self):
        with pytest.raises(UnboundVariableError):
            ev("q_i")

    def test_labeled_define_transposes(self):
        # T_i_j defined from a _j_i body stores the transposed layout
        src = "(define $T_i_j [|[|1 2|] [|3 4|]|]_j_i) T_1_2"
        assert show(src) == "3"

    def test_iter_source_yields_before_a_later_error(self):
        values = Interpreter().iter_source("(define $two 2) (* two 3) (derivative r 2)")
        assert format_value(next(values)) == "6"
        with pytest.raises(TegiTypeError):
            next(values)

    def test_definitions_persist(self):
        interp = Interpreter()
        interp.eval_source("(define $two 2)")
        got = interp.eval_source("(* two 3)")
        assert format_value(got[0]) == "6"


class TestClosures:
    def test_lambda_application(self):
        assert show("((lambda [$x $y] (+ x y)) 1 2)") == "3"

    def test_arity(self):
        with pytest.raises(ArityError):
            ev("((lambda [$x] x) 1 2)")

    def test_not_a_function(self):
        with pytest.raises(TegiTypeError):
            ev("(1 2)")

    def test_scalar_parameters_map(self):
        assert show("((lambda [$x] (* x x)) [|1 2 3|]_i)") == "[|1 4 9|]_i"

    def test_tensor_parameters_pass_whole(self):
        assert show("((lambda [%t] (contract + t)) [|11 22 33|]~_i)") == "66"

    def test_closures_capture(self):
        src = "(define $adder (lambda [$n] (lambda [$x] (+ x n)))) ((adder 10) 5)"
        assert show(src) == "15"

    def test_shared_label_never_evaluates_the_discarded_product(self):
        # a~i b~i reads only the diagonal, so the pair (2, 2) at (2, 1),
        # which divides by zero, is never formed
        src = """
        (define $f (lambda [$a $b] (/ 1 (- a b))))
        (define $A [|1 2|])
        (define $B [|2 4|])
        (f A~i B~i)
        """
        assert show(src) == "[|-1 (/ -1 2)|]~i"


class TestCompletion:
    def test_shared_completion_adds_forms(self):
        src = "(+ (wedge [|1 2|] [|30 40|]) (wedge [|5 6|] [|7 8|]))"
        assert to_nested(ev(src)) == [[30 + 35, 40 + 40], [60 + 42, 80 + 48]]

    def test_shared_completion_mismatch(self):
        with pytest.raises(CompletionMismatchError):
            ev("(+ (wedge [|1 2|] [|30 40|]) [|1 2|])")

    def test_wedge(self):
        assert show("(wedge [|1 2|] [|30 40|])") == "[|[|30 40|] [|60 80|]|]"
        got = show("(df-normalize (wedge [|1 2|] [|30 40|]))")
        assert got == "[|[|0 -10|] [|10 0|]|]"

    def test_exterior_derivative_of_zero_form(self):
        src = "(define $x [|θ φ|]) (d (* θ φ))"
        assert show(src) == "[|φ θ|]"

    def test_dd_is_zero(self):
        src = "(define $x [|θ φ|]) (df-normalize (d (d (* θ (sin φ)))))"
        assert show(src) == "[|[|0 0|] [|0 0|]|]"


class TestBuiltins:
    def test_transpose(self):
        got = show("(transpose {j i} [|[|1 2|] [|3 4|]|]_i_j)")
        assert got == "[|[|1 3|] [|2 4|]|]_j_i"

    def test_flip_indices(self):
        assert show("(flip-indices [|1 2|]~i)") == "[|1 2|]_i"

    def test_df_order(self):
        assert show("(df-order (wedge [|1 2|] [|3 4|]))") == "2"

    def test_levi_civita(self):
        assert show("(levi-civita 2)") == "[|[|0 1|] [|-1 0|]|]"
        assert show("(ε 2)") == "[|[|0 1|] [|-1 0|]|]"
        with pytest.raises(DomainError):
            ev("(levi-civita 0)")

    def test_det_with_dummy_indices(self):
        src = "(define $g__ [|[|r^2 0|] [|0 (* r^2 (sin θ)^2)|]|]) (M.det g_#_#)"
        assert show(src) == "(* r^4 (sin θ)^2)"

    def test_between_and_map(self):
        assert show("(between 1 3)") == "{1 2 3}"
        assert show("(map (lambda [$n] (* n n)) (between 1 3))") == "{1 4 9}"

    def test_tensor_map(self):
        got = show("(tensor-map (lambda [$c] (* 10 c)) [|1 2|]_i)")
        assert got == "[|10 20|]_i"


EUCLID = """
(define $g__ [|[|1 0|] [|0 1|]|])
(define $g~~ [|[|1 0|] [|0 1|]|])
"""


class TestHodge:
    def test_volume_form(self):
        assert show(EUCLID + "(hodge 1)") == "[|[|0 1|] [|-1 0|]|]"

    def test_one_form(self):
        assert show(EUCLID + "(hodge [|a b|])") == "[|(* -1 b) a|]"

    def test_twice(self):
        assert show(EUCLID + "(hodge (hodge [|a b|]))") == "[|(* -1 a) (* -1 b)|]"

    def test_needs_metric(self):
        with pytest.raises(UnboundVariableError):
            ev("(hodge [|1 2|])")

    def test_curved_scale(self):
        src = (
            "(define $g__ [|[|r^2 0|] [|0 (* r^2 (sin θ)^2)|]|])"
            "(define $g~~ [|[|(/ 1 r^2) 0|] [|0 (/ 1 (* r^2 (sin θ)^2))|]|])"
            "(hodge 1)"
        )
        got = ev(src)
        assert format_value(got) == (
            "[|[|0 (sqrt (abs (* r^4 (sin θ)^2)))|]"
            " [|(* -1 (sqrt (abs (* r^4 (sin θ)^2)))) 0|]|]"
        )


S2_PRELUDE = """
(define $x [| θ φ |])

(define $g__ [| [| r^2 0 |] [| 0 (* r^2 (sin θ)^2) |] |])
(define $g~~ [| [| (/ 1 r^2) 0 |] [| 0 (/ 1 (* r^2 (sin θ)^2)) |] |])

(define $Γ_i_j_k
  (* (/ 1 2)
     (+ (∂/∂ g_i_k x~j)
        (∂/∂ g_i_j x~k)
        (* -1 (∂/∂ g_j_k x~i)))))

(define $Γ~i_j_k (with-symbols {m} (. g~i~m Γ_m_j_k)))

(define $ω~i_j (with-symbols {k} Γ~i_j_k))

(define $Ω~i_j (with-symbols {k}
  (df-normalize (+ (d ω~i_j)
                   (wedge ω~i_k ω~k_j)))))
"""

RIEMANN = """
(define $R~i_j_k_l
  (with-symbols {m}
    (+ (- (∂/∂ Γ~i_j_l x~k) (∂/∂ Γ~i_j_k x~l))
       (- (. Γ~m_j_l Γ~i_m_k) (. Γ~m_j_k Γ~i_m_l)))))
"""


@pytest.fixture(scope="module")
def sphere():
    interp = Interpreter()
    interp.eval_source(S2_PRELUDE + RIEMANN)
    return interp


def shown(interp, src):
    return format_value(interp.eval_source(src)[-1])


class TestSphere:
    def test_first_kind_christoffel(self, sphere):
        # [DERIVED by hand from the metric]
        assert shown(sphere, "Γ_1_2_2") == "(* -1 r^2 (cos θ) (sin θ))"
        assert shown(sphere, "Γ_2_1_2") == "(* r^2 (cos θ) (sin θ))"
        assert shown(sphere, "Γ_2_2_1") == "(* r^2 (cos θ) (sin θ))"
        for slot in ("1_1_1", "1_1_2", "1_2_1", "2_1_1", "2_2_2"):
            assert shown(sphere, f"Γ_{slot}") == "0"

    def test_second_kind_christoffel(self, sphere):
        # [DERIVED by hand] Γ^θ_φφ = -sinθcosθ, Γ^φ_θφ = Γ^φ_φθ = cosθ/sinθ
        assert shown(sphere, "Γ~1_2_2") == "(* -1 (cos θ) (sin θ))"
        assert shown(sphere, "Γ~2_1_2") == "(/ (cos θ) (sin θ))"
        assert shown(sphere, "Γ~2_2_1") == "(/ (cos θ) (sin θ))"
        for slot in ("1_1_1", "1_1_2", "1_2_1", "2_1_1", "2_2_2"):
            assert shown(sphere, f"Γ~{slot}") == "0"

    def test_riemann_components(self, sphere):
        # [DERIVED by hand] R^θ_φθφ = sin²θ and its relatives
        assert shown(sphere, "R~1_2_1_2") == "(sin θ)^2"
        assert shown(sphere, "R~1_2_2_1") == "(* -1 (sin θ)^2)"
        assert shown(sphere, "R~2_1_2_1") == "1"
        assert shown(sphere, "R~2_1_1_2") == "-1"
        assert shown(sphere, "R~1_1_1_2") == "0"

    def test_curvature_form_route(self, sphere):
        # 2Ω^i_j[k,l] == R^i_jkl exactly, all 16 slots
        for i in (1, 2):
            for j in (1, 2):
                for k in (1, 2):
                    for l in (1, 2):
                        om = sphere.eval_source(f"Ω~{i}_{j}_{k}_{l}")[-1]
                        r = sphere.eval_source(f"R~{i}_{j}_{k}_{l}")[-1]
                        assert mul(rational(2, 1), om) == r

    def test_curvature_form_antisymmetry(self, sphere):
        got = sphere.eval_source("(+ Ω~1_2_1_2 Ω~1_2_2_1)")[-1]
        assert format_value(got) == "0"

    def test_d_agrees_with_direct_exterior_derivative(self, sphere):
        got = sphere.eval_source("(d ω~1_2)")[-1]
        omega = sphere.global_env.lookup(("ω", (1, -1)))
        coords = TensorValue((2,), (symbol("θ"), symbol("φ")))
        row = attach_indices(omega, [up(1), down(2)])
        want = exterior_d(row, coords)
        assert got.shape == want.shape and got.components == want.components


class TestErrors:
    def test_over_indexing(self):
        with pytest.raises(IndexArityError):
            ev("[|1 2|]_i_j")

    def test_repeated_symbol_dimension_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ev("[|[|1 2 3|] [|4 5 6|]|]_i_i")

    def test_derivative_by_non_symbol(self):
        with pytest.raises(TegiTypeError):
            ev("(derivative r 2)")

    def test_function_values_print_opaquely(self):
        assert format_value(ev("min")) == "#<function>"
        assert format_value(ev("contract")) == "#<function contract>"
