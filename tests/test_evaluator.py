"""Tests for the interpreter: environments, application semantics, builtins."""

import sys

import pytest

from tegi.errors import (
    ArityError,
    CompletionMismatchError,
    DigitLimitError,
    DomainError,
    IndexArityError,
    IndexBoundsError,
    ParseError,
    ShapeMismatchError,
    TegiTypeError,
    UnboundVariableError,
)
from tegi import evaluator, forms, lang, tensor
from tegi.evaluator import Interpreter, format_value
from tegi.lang import unparse
from tegi.symexpr import Sym, as_int, int_pow, mul, rational, sin, symbol
from tegi.tensor import MAX_COMPONENTS, MAX_LEVI_CIVITA, TensorValue, attach_indices, down, up

import oracles
from oracles import DenseInterpreter, exterior_d, to_nested

HUGE = "(* (^ 10 3000) (^ 10 3000))"  # 10**6000: built, but too long to print


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
        with pytest.raises(TegiTypeError) as exc:
            ev(src)
        assert exc.value.message == f"expected a scalar, got {got}"
        assert exc.value.location == (1, 1)

    @pytest.mark.parametrize(
        "src, message",
        [
            ("[|[|1 2|]_i [|3 4|]_i|]", "tensor components must not carry index marks"),
            ("[|[|1|] 2|]", "mixed scalar and tensor components"),
            ("[|[|1 2|] [|3|]|]", "ragged tensor literal"),
        ],
    )
    def test_shape_errors(self, src, message):
        with pytest.raises(ShapeMismatchError) as exc:
            ev(src)
        assert exc.value.message == message
        assert exc.value.location == (1, 1)


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

    def test_run_emits_before_a_later_error(self):
        values = []
        with pytest.raises(TegiTypeError):
            Interpreter().run("(define $two 2) (* two 3) (derivative r 2)", values.append)
        assert [format_value(v) for v in values] == ["6"]

    @pytest.mark.parametrize(
        "src, col",
        [
            ("{(define $y 2)}", 2),
            ("(+ 1 (define $y 2))", 6),
            ("(let {[$a (define $y 5)]} y)", 11),
            ("(define $y 2)_i", 1),
            ("(define $y 2)^2", 1),
        ],
    )
    def test_a_define_inside_an_expression_is_refused_before_anything_runs(self, src, col):
        interp, values = Interpreter(), []
        with pytest.raises(ParseError) as exc:
            interp.run(f"(+ 1 1)\n  {src}", values.append)
        assert str(exc.value) == f"line 2, col {col + 2}: define must be a top-level form"
        assert values == []
        assert format_value(interp.eval_source("y")[-1]) == "y"  # y stays unbound

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

    @pytest.mark.parametrize(
        "src, message",
        [
            ("((lambda [$x $y] x) 1)", "expected 2 arguments, got 1"),
            ("((lambda [$x] x) 1 2)", "expected 1 argument, got 2"),
            ("(sin 1 2)", "sin expected 1 argument, got 2"),
            ("(-)", "- expected at least 1 argument, got 0"),
            ("(/ 1)", "/ expected at least 2 arguments, got 1"),
        ],
    )
    def test_arity_messages(self, src, message):
        with pytest.raises(ArityError) as info:
            ev(src)
        assert info.value.message == message

    def test_lambda_bodies_use_the_eval_bound_at_call_time(self, monkeypatch):
        # a layer tracer may rebind `Interpreter.eval` after a lambda exists
        interp = Interpreter()
        interp.eval_source("(define $sq (lambda [$x] (* x x)))")
        real, seen = Interpreter.eval, []

        def recording(self, node, env):
            seen.append(unparse(node))
            return real(self, node, env)

        monkeypatch.setattr(Interpreter, "eval", recording)
        assert format_value(interp.eval_source("(sq 3)")[-1]) == "9"
        assert "(* x x)" in seen

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

    @pytest.mark.parametrize("src, want", [
        ("(with-symbols {i} (with-symbols {i} i))", "i"),
        ("((lambda [$x] (lambda [$x] x)) 1)", "#<function>"),
        ("(((lambda [$x] (lambda [$x] x)) 1) 2)", "2"),
        ("(let {[$x 1]} (let {[$x (+ x 1)]} x))", "2"),
    ])
    def test_an_inner_form_may_rebind_an_outer_name(self, src, want):
        assert show(src) == want

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


D_SRC = "(define $D (lambda [$f $x] (derivative f x)))"


class TestDirectKernel:
    """A lambda whose body applies a named function to exactly its own
    parameters calls that function without evaluating the body."""

    def test_lifted_user_lambda_skips_the_body(self, monkeypatch):
        interp = Interpreter()
        interp.eval_source(D_SRC)
        real, seen = Interpreter.eval, []

        def recording(self, node, env):
            seen.append(unparse(node))
            return real(self, node, env)

        monkeypatch.setattr(Interpreter, "eval", recording)
        got = interp.eval_source("(D [|(* r (sin θ)) (* r (cos θ))|]_i [|r θ|]_j)")[-1]
        assert format_value(got) == (
            "[|[|(sin θ) (* r (cos θ))|] [|(cos θ) (* -1 r (sin θ))|]|]_i_j"
        )
        assert "(derivative f x)" not in seen

    @pytest.mark.parametrize("rebinding, want", [
        ("(define $derivative (lambda [$a $b] (* a b)))", "[|3 15|]_i"),
        ("(define $derivative min)", "[|1 3|]_i"),
    ])
    def test_the_name_is_looked_up_at_each_call(self, rebinding, want):
        assert show(f"{D_SRC} {rebinding} (D [|1 5|]_i 3)") == want

    @pytest.mark.parametrize("rebinding, error, message", [
        ("(define $derivative sin)", ArityError, "sin expected 1 argument, got 2"),
        ("(define $derivative 3)", TegiTypeError, "not a function: 3"),
    ])
    def test_a_rebound_name_fails_as_the_body_would(self, rebinding, error, message):
        with pytest.raises(error) as info:
            ev(f"{D_SRC} {rebinding} (D r θ)")
        assert str(info.value) == f"line 1, col 28: {message}"

    def test_a_tensor_of_functions_is_refused(self):
        with pytest.raises(TegiTypeError) as info:
            ev("(∂/∂ (tensor-map (lambda [$c] sin) [|1 2|]_i) r)")
        assert info.value.message == "expected a scalar, got #<function sin>"

    @pytest.mark.parametrize("arg", ["(abs y)", "[|(abs y) y|]_i"])
    def test_a_kernel_error_is_located_at_the_body(self, arg):
        src = f"(define $D (lambda [$f $x]\n   (derivative f x)))\n(D {arg} y)"
        with pytest.raises(TegiTypeError) as info:
            ev(src)
        assert str(info.value) == "line 2, col 4: cannot differentiate abs"

    @pytest.mark.parametrize("src, want", [
        ("(define $D (lambda [$derivative $x] (derivative x))) (D sin 0)", "0"),
        ("(define $D (lambda [$f $x] (derivative x f))) (D r θ)", "0"),
    ])
    def test_other_bodies_keep_the_general_path(self, src, want):
        assert show(src) == want

    def test_a_lambdas_shape_is_found_when_it_is_parsed_not_when_it_is_evaluated(
        self, monkeypatch
    ):
        # each `d` evaluates `flip`'s inner lambda afresh
        calls = []
        for name in ("_one_application", "_contracted_product"):
            real = getattr(lang, name)

            def counting(body, names, real=real, name=name):
                calls.append(name)
                return real(body, names)

            monkeypatch.setattr(lang, name, counting)
        interp = Interpreter()
        assert calls  # the prelude's lambdas, as it was parsed
        src = "(define $x [|r θ|]) (define $A [|(sin θ) r|]_i)" + " (d A)" * 3
        nodes = lang.parse_program(src)
        parsed = len(calls)
        values = [interp.eval(node, interp.global_env) for node in nodes]
        assert [format_value(v) for v in values[2:]] == ["[|[|0 (cos θ)|] [|1 0|]|]_i"] * 3
        assert len(calls) == parsed


class TestDerivativeMemo:
    def count(self, monkeypatch):
        calls = []
        real = evaluator.differentiate

        def counting(f, x):
            calls.append((format_value(f), format_value(x)))
            return real(f, x)

        monkeypatch.setattr(evaluator, "differentiate", counting)
        return calls

    def test_each_pair_is_computed_once_per_interpreter(self, monkeypatch):
        calls = self.count(monkeypatch)
        src = "(∂/∂ [|(sin r) (sin r) r^2|]_i [|r r|]_j) (derivative (sin r) r)"
        for _ in range(2):
            del calls[:]
            got = Interpreter().eval_source(src)
            assert format_value(got[-1]) == "(cos r)"
            assert sorted(calls) == [("(sin r)", "r"), ("r^2", "r")]

    def test_errors_are_not_stored(self, monkeypatch):
        calls = self.count(monkeypatch)
        interp = Interpreter()
        for _ in range(2):
            with pytest.raises(TegiTypeError):
                interp.eval_source("(derivative r 2)")
        assert calls == [("r", "2"), ("r", "2")]

    def test_pairs_past_the_entry_bound_are_computed_each_time(self, monkeypatch):
        calls = self.count(monkeypatch)
        monkeypatch.setattr(evaluator, "DERIVATIVE_MEMO_ENTRIES", 1)
        interp = Interpreter()
        interp.eval_source("(derivative (sin r) r)")
        for _ in range(3):
            assert format_value(interp.eval_source("(derivative (cos r) r)")[-1]) == (
                "(* -1 (sin r))"
            )
        interp.eval_source("(derivative (sin r) r)")
        assert calls == [("(sin r)", "r")] + [("(cos r)", "r")] * 3


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

    def test_df_order_refuses_a_string(self):
        with pytest.raises(TegiTypeError) as exc:
            ev('(df-order "s")')
        assert str(exc.value) == "line 1, col 1: df-order expects a scalar or tensor value"

    def test_levi_civita(self):
        assert show("(levi-civita 2)") == "[|[|0 1|] [|-1 0|]|]"
        assert show("(ε 2)") == "[|[|0 1|] [|-1 0|]|]"
        with pytest.raises(DomainError):
            ev("(levi-civita 0)")

    @pytest.mark.parametrize("n", ["0", "-2", "(/ 1 2)", "θ"])
    def test_levi_civita_needs_a_positive_integer(self, n):
        with pytest.raises(DomainError) as info:
            ev(f"(levi-civita {n})")
        assert info.value.message == "levi-civita needs an integer dimension from 1 to 7"

    def test_levi_civita_refuses_a_huge_tensor_before_allocating(self):
        # 20**20 components: refused by the dimension bound, located at the call
        with pytest.raises(DomainError) as info:
            Interpreter().eval_source("(+ 1 2)\n  (levi-civita 20)")
        assert str(info.value) == (
            "line 2, col 3: levi-civita needs an integer dimension from 1 to 7"
        )

    def test_the_levi_civita_bound_is_the_largest_within_the_size_limit(self):
        n = MAX_LEVI_CIVITA
        assert n**n <= MAX_COMPONENTS < (n + 1) ** (n + 1)

    @pytest.mark.parametrize(
        "src, error, message",
        [
            ("(levi-civita 8)", DomainError, "levi-civita needs an integer dimension from 1 to 7"),
            # n**n is never computed, and n is never printed
            (
                f"(levi-civita {HUGE})",
                DomainError,
                "levi-civita needs an integer dimension from 1 to 7",
            ),
            # the bound is spelled only to refuse, and it is too long to print
            (
                f"(between 0 {HUGE})",
                DigitLimitError,
                "cannot print an integer of more than 4300 digits",
            ),
        ],
        ids=["levi-civita-8", "levi-civita-huge", "between-huge"],
    )
    def test_a_size_refusal_is_made_before_the_work(self, src, error, message):
        with pytest.raises(error) as info:
            Interpreter().eval_source(f"(+ 1 2)\n  {src}")
        assert type(info.value) is error
        assert str(info.value) == f"line 2, col 3: {message}"

    IDENTITY_9 = "[|" + " ".join(
        "[|" + " ".join("1" if i == j else "0" for j in range(9)) + "|]" for i in range(9)
    ) + "|]"

    @pytest.mark.parametrize(
        "setup, src, what",
        [
            ("", "(between 1 10000000000)", "between 1 10000000000 would have 10000000000"),
            ("", "!(* (levi-civita 6) (levi-civita 6))", "the result would have 2176782336"),
            # two results sharing one tensor of 7**7 components, hoisted as 2 * 7**7
            (
                "(define $e (levi-civita 7))",
                "(tensor-map (lambda [$x] e) [|1 2|])",
                "the result would have 1647086",
            ),
            (
                f"(define $g__ {IDENTITY_9}) (define $g~~ {IDENTITY_9})",
                "(hodge 1)",
                "the Hodge star would have 387420489",
            ),
        ],
        ids=["between", "outer-product", "hoisted-results", "hodge"],
    )
    def test_a_huge_value_is_refused_before_it_is_built(self, setup, src, what):
        # refused by a count before anything of that size is built, and
        # located at the call
        with pytest.raises(DomainError) as info:
            Interpreter().eval_source(f"{setup}\n  {src}")
        assert str(info.value) == f"line 2, col 3: {what} components, more than 1000000"

    @pytest.mark.parametrize(
        "src",
        [
            "(^ 2 100000000000)",
            "(^ 2 -100000000000)",
            "(^ 2 14285)",
            "(^ (/ 1 2) 20000)",
            "(^ (* 3 x) 100000000000)",
        ],
    )
    def test_a_power_too_long_to_print_is_refused_before_it_is_built(self, src):
        # judged from bit lengths before any squaring, and located at the call
        with pytest.raises(DomainError) as info:
            Interpreter().eval_source(f"(+ 1 2)\n  {src}")
        assert str(info.value) == (
            "line 2, col 3: a power with a coefficient of more than 4300 digits"
        )

    def test_the_longest_power_of_two_that_prints_is_built(self):
        assert len(show("(^ 2 14284)")) == 4300

    def test_det_with_dummy_indices(self):
        src = "(define $g__ [|[|r^2 0|] [|0 (* r^2 (sin θ)^2)|]|]) (M.det g_#_#)"
        assert show(src) == "(* r^4 (sin θ)^2)"

    @staticmethod
    def symbol_matrix(n: int) -> str:
        rows = " ".join("[|" + " ".join(f"m{i}x{j}" for j in range(n)) + "|]" for i in range(n))
        return f"(define $m [| {rows} |])\n  (M.det m)"

    def test_det_of_a_dense_10x10_matrix_is_refused_before_any_term(self, monkeypatch):
        # after 8 rows: min(10**8, 10!/2!) = 1,814,400 partial terms
        built = []
        monkeypatch.setattr(forms, "_transversals", lambda rows: built.append(rows) or [])
        with pytest.raises(DomainError) as info:
            Interpreter().eval_source(self.symbol_matrix(10))
        assert str(info.value) == (
            "line 2, col 3: the determinant of a 10×10 matrix would build 1814400 "
            "partial terms after 8 rows, more than 1000000"
        )
        assert built == []

    def test_det_of_a_dense_6x6_matrix_is_computed(self):
        assert len(ev(self.symbol_matrix(6)).terms) == 720  # 6! Leibniz terms

    @pytest.mark.parametrize("t", ["5", "[|1|]~_i", "[|1 2|]~i", "[|1 2|]~_i"])
    def test_contract_refuses_a_non_function_at_any_run_length(self, t):
        for cls in (Interpreter, DenseInterpreter):
            with pytest.raises(TegiTypeError) as info:
                cls().eval_source(f"(+ 1 2)\n  (contract 5 {t})")
            assert str(info.value) == "line 2, col 3: not a function: 5"

    def test_between_and_map(self):
        assert show("(between 1 3)") == "{1 2 3}"
        assert show("(map (lambda [$n] (* n n)) (between 1 3))") == "{1 4 9}"

    def test_tensor_map(self):
        got = show("(tensor-map (lambda [$c] (* 10 c)) [|1 2|]_i)")
        assert got == "[|10 20|]_i"


I2 = "[|[|1 0|] [|0 1|]|]"
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

    @pytest.mark.parametrize(
        "g_lower, g_upper, form, error, message",
        [
            ("[|[|1 0 0|] [|0 1 0|]|]", I2, "1", ShapeMismatchError,
             "hodge star needs square metric matrices"),
            (I2, "[|[|1 0 0|] [|0 1 0|] [|0 0 1|]|]", "1", ShapeMismatchError,
             "metric and inverse metric disagree on dimension"),
            (I2, I2, "{1}", TegiTypeError, "hodge star of a non-form value"),
            (I2, I2, "[|1 2 3|]", ShapeMismatchError, "form axes must match the metric dimension"),
        ],
        ids=["non-square-metric", "dimensions-disagree", "non-form", "form-axes"],
    )
    def test_a_refusal_is_located_at_the_call(self, g_lower, g_upper, form, error, message):
        src = f"(define $g__ {g_lower})\n(define $g~~ {g_upper})\n(hodge {form})"
        with pytest.raises(error) as exc:
            ev(src)
        assert str(exc.value) == f"line 3, col 1: {message}"

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

    def test_where_the_metrics_are_found(self):
        # the metric is found as g_#_# finds it: longest signature prefix, then
        # the plain name; the inverse only under a signature ~~ or ~
        m, inv = "[|[|1 0|] [|0 4|]|]", "[|[|1 0|] [|0 (/ 1 4)|]|]"
        both = show(f"(define $g__ {m}) (define $g~~ {inv}) (hodge [|1 2|])")
        assert both == "[|-1 2|]"
        assert show(f"(define $g {m}) (define $g~~ {inv}) (hodge [|1 2|])") == both
        assert show(f"(define $g_ {m}) (define $g~ {inv}) (hodge [|1 2|])") == both
        # a signature binding wins over the plain name
        assert show(EUCLID + f"(define $g {m}) (hodge [|a b|])") == "[|(* -1 b) a|]"
        # a plain $g is the metric, not its inverse
        with pytest.raises(UnboundVariableError, match=r"hodge needs \$g__ and \$g~~"):
            ev(f"(define $g {m}) (hodge [|1 2|])")

    def test_a_redefined_metric_takes_effect_at_the_next_call(self):
        # one interpreter keeps the star of the last metric; a new $g__ or
        # $g~~ is a new object, so the next call builds the new star
        m, inv = "[|[|1 0|] [|0 4|]|]", "[|[|1 0|] [|0 (/ 1 4)|]|]"
        got = [
            format_value(v)
            for v in Interpreter().eval_source(
                EUCLID + "(hodge [|1 2|])\n"
                f"(define $g__ {m}) (hodge [|1 2|])\n"
                f"(define $g~~ {inv}) (hodge [|1 2|])\n"
                f"(define $g__ {I2}) (hodge [|1 2|])"
            )
            if v is not None
        ]
        fresh = [
            show(f"(define $g__ {lower}) (define $g~~ {upper}) (hodge [|1 2|])")
            for lower, upper in [(I2, I2), (m, I2), (m, inv), (I2, inv)]
        ]
        assert got == fresh == ["[|-2 1|]", "[|-4 2|]", "[|-1 2|]", "[|(/ -1 2) 1|]"]

    def test_each_interpreter_builds_its_own_star_once_per_metric(self, monkeypatch):
        dets = []
        real = forms.det

        def counted(m):
            dets.append(m)
            return real(m)

        monkeypatch.setattr(forms, "det", counted)
        src = EUCLID + "(hodge 1) (hodge [|a b|]) (hodge (hodge [|a b|]))"
        first, second = Interpreter(), Interpreter()
        first.eval_source(src)
        assert len(dets) == 1
        first.eval_source("(hodge [|p q|])")
        assert len(dets) == 1
        second.eval_source(src)  # nothing is shared between interpreters
        assert len(dets) == 2

    FUNCTIONS = "(tensor-map (lambda [$c] (lambda [$x] x)) [|1 2|])"
    BOOLEANS = "(tensor-map (lambda [$c] (less-than? c 5)) [|[|1 2|] [|6 7|]|])"

    @pytest.mark.parametrize("starred_before", [False, True], ids=["first-call", "star-kept"])
    @pytest.mark.parametrize(
        "g_lower, form, message",
        [
            (I2, FUNCTIONS, "expected a scalar, got #<function>"),
            (BOOLEANS, "1", "expected a scalar, got #t"),
            # the form is checked before the metric
            (BOOLEANS, FUNCTIONS, "expected a scalar, got #<function>"),
        ],
        ids=["form", "metric", "both"],
    )
    def test_a_non_scalar_is_refused_form_first(self, starred_before, g_lower, form, message):
        before = EUCLID + "(hodge 1)\n" if starred_before else ""
        src = f"{before}(define $g__ {g_lower})\n(define $g~~ {I2})\n  (hodge {form})"
        with pytest.raises(TegiTypeError) as exc:
            Interpreter().eval_source(src)
        line = src.count("\n") + 1
        assert str(exc.value) == f"line {line}, col 3: {message}"


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
        omega = sphere.global_env.bindings["ω", (1, -1)]
        coords = TensorValue((2,), (symbol("θ"), symbol("φ")))
        row = attach_indices(omega, [up(1), down(2)])
        want = exterior_d(row, coords)
        assert got.shape == want.shape and got.components == want.components


class TestDirectCalls:
    """Work the dense path does and the interpreter skips; each pin checks
    that DenseInterpreter does it, so the recorder is known to see it."""

    S2_METRIC = (
        "(define $g__ [| [| r^2 0 |] [| 0 (* r^2 (sin θ)^2) |] |])\n"
        "(define $g~~ [| [| (/ 1 r^2) 0 |] [| 0 (/ 1 (* r^2 (sin θ)^2)) |] |])\n"
    )

    @staticmethod
    def record(monkeypatch, owner, name):
        calls = []
        real = getattr(owner, name)

        def recording(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, recording)
        return calls

    def test_contracting_with_plus_makes_no_call_per_fold_step(self, monkeypatch):
        src = "(with-symbols {i} (. [|1 2 3|]~i [|4 5 6|]_i))"
        for cls, steps in [(Interpreter, 0), (DenseInterpreter, 2)]:
            interp = cls()
            plus = interp.global_env.bindings["+"]
            calls = self.record(monkeypatch, cls, "call")
            assert format_value(interp.eval_source(src)[-1]) == "32"
            assert sum(args[1] is plus for args in calls) == steps
            monkeypatch.undo()

    @pytest.mark.parametrize("args", ["[|1|]~i [|2|]_i", "[|1 2|]~i [|2 1|]_i"])
    def test_contracting_booleans_with_plus_fails_at_any_run_length(self, args):
        # the builtin `+` sees a run of one component as well as a longer run
        for cls in (Interpreter, DenseInterpreter):
            with pytest.raises(TegiTypeError) as info:
                cls().eval_source(f"(contract + (less-than? {args}))")
            assert info.value.message == "expected a scalar, got #t"

    @pytest.mark.parametrize("src, want", [("(. [|3|]~i [|4|]_i)", "12"), ("(. [|3 5|]~i [|4 2|]_i)", "22")])
    def test_contracting_numbers_with_plus_at_any_run_length(self, src, want):
        for cls in (Interpreter, DenseInterpreter):
            assert format_value(cls().eval_source(src)[-1]) == want

    def test_dot_never_multiplies_by_zero(self, monkeypatch):
        # the join multiplies only pairs of nonzero components; the dense
        # path builds the whole product, zeros of the diagonal metric included
        src = self.S2_METRIC + "(. g~i~m g_m_k)"
        results = []
        for cls, module in [(Interpreter, tensor), (DenseInterpreter, oracles)]:
            factors = self.record(monkeypatch, module, "mul")
            results.append(cls().eval_source(src)[-1])
            zero_products = [fs for fs in factors if any(not f.terms for f in fs)]
            assert factors and bool(zero_products) == (cls is DenseInterpreter)
            monkeypatch.undo()
        assert results[0] == results[1]

    @pytest.mark.parametrize("src, want", [
        ("(+ 1 2)", "3"),
        ("!(* r 3)", "(* 3 r)"),
        ("(min 2 1)", "1"),
        ("!(min 2 1)", "1"),
    ])
    def test_scalar_call_completes_no_indices(self, monkeypatch, src, want):
        for cls, module in [(Interpreter, evaluator), (DenseInterpreter, oracles)]:
            interp = cls()
            calls = self.record(monkeypatch, module, "complete_omitted_indices")
            assert format_value(interp.eval_source(src)[-1]) == want
            assert bool(calls) == (cls is DenseInterpreter)
            monkeypatch.undo()


class TestErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "(+ 1 B)", "(- B)", "(- 1 B)", "(* 0 B)", "(/ 1 B)", "(^ B 2)", "(less-than? 1 B)",
            "(sin B)", "(cos B)", "(sqrt B)", "(abs B)", "(derivative B r)", "(derivative r B)",
            "(levi-civita B)", "(between 1 B)",
        ],
    )
    def test_every_scalar_builtin_refuses_a_non_scalar(self, src):
        # `(* 0 B)`: a zero factor does not spare the other factors the check
        with pytest.raises(TegiTypeError) as exc:
            ev(src.replace("B", "(less-than? 1 2)"))
        assert exc.value.message == "expected a scalar, got #t"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int-str limit to lower"
    )
    def test_an_integer_past_the_interpreters_own_limit_is_the_same_error(self):
        # the conversion's own ValueError, with the limit set below MAX_DIGITS
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(DigitLimitError) as info:
                Interpreter().run("(+ 1 2)\n  (^ 10 1000)", format_value)
        finally:
            sys.set_int_max_str_digits(limit)
        assert str(info.value) == "line 2, col 3: cannot print an integer of more than 4300 digits"

    def test_an_out_of_bounds_label_too_long_to_print_is_the_digit_error(self):
        with pytest.raises(DigitLimitError) as info:
            Interpreter().run(f"(define $k {HUGE})\n  [|1 2|]_k", format_value)
        assert str(info.value) == "line 2, col 10: cannot print an integer of more than 4300 digits"

    def test_a_small_out_of_bounds_label_keeps_its_message(self):
        with pytest.raises(IndexBoundsError) as info:
            Interpreter().run("(define $k 3)\n  [|1 2|]_k", format_value)
        assert str(info.value) == "line 2, col 10: index 3 out of bounds for axis of dimension 2"

    def test_power_checks_its_exponent_before_its_base(self):
        with pytest.raises(TegiTypeError) as exc:
            ev("(^ (less-than? 1 2) (/ 1 2))")
        assert exc.value.message == "'^' needs an integer exponent"

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
