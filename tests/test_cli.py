"""End-to-end tests for the command-line front end.

Everything runs through a subprocess so exit codes and stream
separation are tested for real.
"""

import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "corpus"

NOT_UTF8 = b"(+ 1 2)\n\xff\xfe\n"
NOT_UTF8_ERROR = "error: {path}: 'utf-8' codec can't decode byte 0xff in position 8: invalid start byte"
# Values nested 1,500 deep, built one level per top-level form, so only
# printing them (or evaluating them under --bind) goes deeper than the stack.
DEEP_TUPLE = "(define $b {})\n" + "(define $b {b})\n" * 1500 + "b\n"
DEEP_SIN = "(define $s x)\n" + "(define $s (sin s))\n" * 1500 + "s\n"
TOO_DEEP_ERROR = "error: line 1502, col 1: recursion too deep"
HUGE = "(* (^ 10 3000) (^ 10 3000))"  # 10**6000: more than 4300 digits


def tegi(*argv, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "tegi.cli", *argv],
        input=stdin,
        capture_output=True,
        text=True,
        encoding="utf-8",
    )


class TestRun:
    def test_contract_script(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(contract + [|11 22 33|]~_i)\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 0
        assert r.stdout == "66\n"
        assert r.stderr == ""

    def test_empty_file(self, tmp_path):
        f = tmp_path / "empty.tegi"
        f.write_text("", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 0
        assert r.stdout == ""

    def test_over_indexing_fails(self, tmp_path):
        f = tmp_path / "bad.tegi"
        f.write_text("[|1 2|]_i_j_k\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode != 0
        assert "error" in r.stderr

    def test_missing_file(self, tmp_path):
        r = tegi("run", str(tmp_path / "absent.tegi"))
        assert r.returncode != 0
        assert "error" in r.stderr

    def test_os_error_spells_the_path_as_pathlib_does(self, tmp_path):
        # no './', '//' or trailing '/' in the path an OS error names
        (tmp_path / "a.tegi").mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

        def at(*argv):
            return subprocess.run(
                [sys.executable, "-m", "tegi.cli", *argv],
                cwd=tmp_path, env=env, capture_output=True, text=True, encoding="utf-8",
            )

        missing = "error: [Errno 2] No such file or directory: 'nope.tegi'\n"
        assert at("run", "./nope.tegi").stderr == missing
        assert at("run", f"{tmp_path}//./a.tegi/").stderr == (
            f"error: [Errno 21] Is a directory: '{tmp_path}/a.tegi'\n"
        )
        (tmp_path / "b.tegi").write_bytes(NOT_UTF8)
        assert at("check", ".").stdout == (
            "FAIL a.tegi\n  error: [Errno 21] Is a directory: 'a.tegi'\n"
            f"FAIL b.tegi\n  {NOT_UTF8_ERROR.format(path='b.tegi')}\n"
            "checked 2 files: 0 passed, 2 failed\n"
        )

    def test_output_before_error_is_kept(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(+ 1 2)\n(derivative r 2)\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode != 0
        assert r.stdout == "3\n"

    def test_runtime_error_is_located(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(define $x 1)\n\n\n(/ 1 0)\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stderr == "error: line 4, col 1: division by zero\n"

    def test_innermost_application_locates_the_error(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(+ 1\n   (* 2 (/ 1 0)))\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stderr == "error: line 2, col 9: division by zero\n"

    def test_bare_indexed_reference_locates_the_error(self, tmp_path):
        # the location is the first index mark of the reference
        for line, col in [
            ("A_3", 2),
            ("(define $B A_3)", 13),
            ("[|A_3 1|]", 4),
            ("(let {[$y A_3]} y)", 12),
            ("(+ A_3 1)", 5),
        ]:
            f = tmp_path / "s.tegi"
            f.write_text(f"(define $A [|1 2|])\n{line}\n", encoding="utf-8")
            r = tegi("run", str(f))
            assert r.returncode == 1
            assert r.stderr == (
                f"error: line 2, col {col}: index 3 out of bounds for axis of dimension 2\n"
            )

    @pytest.mark.parametrize(
        "line, message",
        [
            ("[|(less-than? 1 2) 1|]", "col 1: expected a scalar, got #t"),
            ("[|[|1 2|] [|1|]|]", "col 1: ragged tensor literal"),
            ("(define $a [|[|1 2|] 3|])", "col 12: mixed scalar and tensor components"),
            # the literal is the innermost node, not the application around it
            ("(+ 1 [|(less-than? 1 2) 1|])", "col 6: expected a scalar, got #t"),
        ],
    )
    def test_tensor_literal_error_is_located(self, tmp_path, line, message):
        f = tmp_path / "s.tegi"
        f.write_text(f"1\n{line}\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == "1\n"
        assert r.stderr == f"error: line 2, {message}\n"

    @pytest.mark.parametrize(
        "line, col, message",
        [
            pytest.param("[|[|1 2|] [|3 (less-than? 1 2)|]|]", 11, "expected a scalar, got #t",
                         id="tensor-literal-leaf"),
            pytest.param("(* 2 (sin (less-than? 1 2)))", 6, "expected a scalar, got #t",
                         id="application"),
            pytest.param("(1 2)", 1, "not a function: 1", id="application-of-a-non-function"),
            pytest.param("(* 2 A_3)", 7, "index 3 out of bounds for axis of dimension 2",
                         id="indexed-reference"),
            pytest.param("(if (+ 1 (less-than? 1 2)) 1 2)", 5, "expected a scalar, got #t",
                         id="if-condition"),
            pytest.param("(if 1 2 3)", 1, "if needs a boolean, got 1", id="if-non-boolean"),
            pytest.param("(let {[$y (+ 1 (less-than? 1 2))]} y)", 11, "expected a scalar, got #t",
                         id="let-binding"),
            pytest.param("(with-symbols {i} (+ 1 (less-than? 1 2)))", 19,
                         "expected a scalar, got #t", id="with-symbols-body"),
            pytest.param("(define $x (+ 1 (less-than? 1 2)))", 12, "expected a scalar, got #t",
                         id="define-body"),
            pytest.param("(define $B~ 1)", 1, "define $B: a signature needs a tensor value",
                         id="define-signature"),
            pytest.param("(map (lambda [$x] (+ x (less-than? 1 2))) {1 2})", 19,
                         "expected a scalar, got #t", id="lambda-body-through-map"),
            # an error inside a prelude function is located at the user's call
            pytest.param("(. A~i [|1 2 3|]_i)", 1,
                         "repeated index over axes of dimension 2 and 3", id="prelude-dot"),
            pytest.param("(min x A)", 1, "less-than? needs numeric scalars", id="prelude-min"),
            pytest.param("(∂/∂ (abs x) x)", 1, "cannot differentiate abs",
                         id="prelude-derivative"),
            pytest.param("(define $k A) A_k", 16, "index label 'k' is not a symbol or integer",
                         id="index-label-not-a-symbol"),
            pytest.param("(define $T__ A_i)", 1, "define $T: the value still carries index marks",
                         id="define-marked-value"),
            pytest.param("(define $T___ [|[|1 2|] [|3 4|]|])", 1,
                         "define $T: value of rank 2 cannot satisfy a signature of 3 indices",
                         id="define-signature-too-long"),
            pytest.param("(between 1 x)", 1, "between needs integer bounds", id="between"),
            pytest.param("(transpose 5 A_i)", 1, "transpose needs a {…} collection of labels",
                         id="transpose-order-not-braces"),
            pytest.param("(transpose {(+ x 1)} A_i)", 1,
                         "transpose labels must be symbols or integers", id="transpose-label"),
            pytest.param("(transpose {i} 5)", 1, "transpose expects a tensor",
                         id="transpose-non-tensor"),
            pytest.param("(map (lambda [$x] x) 5)", 1, "map needs a {…} collection",
                         id="map-non-collection"),
            pytest.param("(+ 1 2)_i", 8, "cannot attach index marks to a scalar",
                         id="marks-on-a-scalar"),
            pytest.param("(tensor-map (lambda [$c] (if (less-than? c 2) c [|c|])) A)", 1,
                         "mixed scalar and tensor results in tensor-map", id="tensor-map-mixed"),
            pytest.param("(a | b)", 4, "stray '|'", id="parse-stray-bar"),
            pytest.param("[||]", 1, "empty tensor literal", id="parse-empty-tensor"),
            pytest.param("{1 2", 1, "unterminated '{'", id="parse-unterminated-brace"),
            pytest.param("!(lambda [$x] x)", 1, "'!' must precede a function application",
                         id="parse-bang"),
            pytest.param("r^x", 3, "'^' needs an integer exponent", id="parse-exponent"),
            pytest.param("(lambda [x] x)", 10, "parameter needs a '$', '%', or '*$' sigil",
                         id="parse-parameter-sigil"),
            pytest.param("{(define $y 2)}", 2, "define must be a top-level form",
                         id="parse-define-in-braces"),
            pytest.param("(+ 1 (define $y 2))", 6, "define must be a top-level form",
                         id="parse-define-as-an-argument"),
            pytest.param("(let {[$a (define $y 5)]} y)", 11, "define must be a top-level form",
                         id="parse-define-in-a-let-binding"),
            pytest.param("(define $y A)_i", 1, "define must be a top-level form",
                         id="parse-define-with-marks"),
            pytest.param("(define $y 2)^2", 1, "define must be a top-level form",
                         id="parse-define-with-an-exponent"),
        ],
    )
    def test_error_is_located_by_node_kind(self, tmp_path, line, col, message):
        f = tmp_path / "s.tegi"
        f.write_text(f"(define $A [|1 2|])\n{line}\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stderr == f"error: line 2, col {col}: {message}\n"

    @pytest.mark.parametrize("call", ["(df-normalize T)", "(hodge T)", "(M.det T)"])
    def test_form_of_booleans_is_a_located_scalar_error(self, tmp_path, call):
        f = tmp_path / "s.tegi"
        f.write_text(
            "(define $g__ [|[|1 0|] [|0 1|]|])\n"
            "(define $g~~ [|[|1 0|] [|0 1|]|])\n"
            "(define $T (tensor-map (lambda [$c] (less-than? c 5))\n"
            "                       [|[|1 2|] [|6 7|]|]))\n"
            f"1\n  {call}\n",
            encoding="utf-8",
        )
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == "1\n"
        assert r.stderr == "error: line 6, col 3: expected a scalar, got #t\n"

    def test_superscript_digit_starting_a_token_is_a_symbol(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(+ ² 1)\n(* r² 2)\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 0
        assert r.stdout == "(+ ² 1)\n(* 2 r²)\n"
        assert r.stderr == ""

    def test_error_after_a_string_spanning_lines_is_located(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text('"a\nb"\n(+ 1 "x")\n', encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == '"a\nb"\n'
        assert r.stderr == 'error: line 3, col 1: expected a scalar, got "x"\n'

    def test_define_with_named_indices_locates_the_error(self, tmp_path):
        # the transpose the define desugars to fails: one label for two axes
        f = tmp_path / "s.tegi"
        f.write_text("1\n  (define $T_i_j [|1 2|])\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == "1\n"
        assert r.stderr == (
            "error: line 2, col 3: transpose order is not a permutation of the tensor's labels\n"
        )

    def test_deep_recursion_is_a_located_error(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text(
            "(define $f (lambda [$n] (if (less-than? n 1) 0 (+ 1 (f (- n 1))))))\n"
            "(f 20)\n"
            "(f 3000)\n",
            encoding="utf-8",
        )
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == "20\n"
        assert r.stderr == "error: line 3, col 1: recursion too deep\n"

    @pytest.mark.parametrize(
        "program",
        [
            "(* (^ 10 3000) (^ 10 3000))",
            "(/ 1 (* (^ 10 3000) (^ 10 3000)))",
            "(^ x (* (^ 10 3000) (^ 10 3000)))",
        ],
        ids=["numerator", "denominator", "exponent"],
    )
    def test_an_integer_too_long_to_print_is_a_located_error(self, tmp_path, program):
        # located at the start of the top-level form, as a value too deep to print is
        f = tmp_path / "s.tegi"
        f.write_text(f"(+ 1 1)\n  {program}\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == "2\n"
        assert r.stderr == (
            "error: line 2, col 3: cannot print an integer of more than 4300 digits\n"
        )

    @pytest.mark.parametrize(
        "program, message",
        [
            ("(levi-civita 8)", "levi-civita needs an integer dimension from 1 to 7"),
            ("(levi-civita 0)", "levi-civita needs an integer dimension from 1 to 7"),
            (f"(levi-civita {HUGE})", "levi-civita needs an integer dimension from 1 to 7"),
            (f"(between 0 {HUGE})", "cannot print an integer of more than 4300 digits"),
        ],
        ids=["levi-civita-8", "levi-civita-0", "levi-civita-huge", "between-huge"],
    )
    def test_a_size_refusal_is_one_located_error(self, tmp_path, program, message):
        f = tmp_path / "s.tegi"
        f.write_text(f"(+ 1 1)\n  {program}\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == "2\n"
        assert r.stderr == f"error: line 2, col 3: {message}\n"

    @pytest.mark.parametrize(
        "label, message",
        [
            (HUGE, "cannot print an integer of more than 4300 digits"),
            ("3", "index 3 out of bounds for axis of dimension 2"),
        ],
        ids=["huge", "small"],
    )
    def test_an_out_of_bounds_label_is_one_located_error(self, tmp_path, label, message):
        f = tmp_path / "s.tegi"
        f.write_text(f"(define $k {label})\n[|1 2|]_k\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert (r.returncode, r.stdout) == (1, "")
        assert r.stderr == f"error: line 2, col 8: {message}\n"

    @pytest.mark.parametrize(
        "value",
        ['"s"', "{1 2}", "(less-than? 1 2)", "(lambda [$x] x)"],
        ids=["string", "collection", "boolean", "function"],
    )
    def test_df_normalize_refuses_a_non_form_value(self, tmp_path, value):
        f = tmp_path / "s.tegi"
        f.write_text(f"(+ 1 1)\n  (df-normalize {value})\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert (r.returncode, r.stdout) == (1, "2\n")
        assert r.stderr == "error: line 2, col 3: df-normalize expects a scalar or tensor value\n"

    def test_a_collection_with_a_huge_bound_is_not_refused(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text(f"(map (lambda [$n] (- n n)) (between {HUGE} {HUGE}))\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert (r.returncode, r.stdout, r.stderr) == (0, "{0}\n", "")

    def test_deep_nesting_is_a_located_parse_error(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(+ 1 2)\n" + "(+ 1 " * 1000 + "0" + ")" * 1000 + "\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: line 2, col 1: nesting too deep\n"

    def test_file_not_in_utf8_is_an_error(self, tmp_path):
        f = tmp_path / "f.tegi"
        f.write_bytes(NOT_UTF8)
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == NOT_UTF8_ERROR.format(path=f) + "\n"
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "program, binds",
        [(DEEP_TUPLE, []), (DEEP_SIN, []), (DEEP_SIN, ["--bind", "x=0.5"])],
        ids=["tuple", "sin", "sin-bound"],
    )
    def test_value_too_deep_to_print_is_a_located_error(self, tmp_path, program, binds):
        f = tmp_path / "s.tegi"
        f.write_text(program, encoding="utf-8")
        r = tegi("run", *binds, str(f))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == TOO_DEEP_ERROR + "\n"
        assert "Traceback" not in r.stderr

    def test_end_of_file_after_a_trailing_comment_is_located(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(define $x 1 ; trailing comment", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stderr == "error: line 1, col 1: unterminated '('\n"
        assert "Traceback" not in r.stderr

    def test_dump_desugared(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(define $T_i_j [|[|1 2|] [|3 4|]|])\nT_2_1\n", encoding="utf-8")
        r = tegi("run", "--dump-desugared", str(f))
        assert r.returncode == 0
        lines = r.stdout.splitlines()
        assert lines == [
            "(define $T__ (with-symbols {i j} (transpose {i j} [|[|1 2|] [|3 4|]|])))",
            "T_2_1",
        ]

    def test_bind_scalar(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(* r^2 (sin θ)^2)\n", encoding="utf-8")
        r = tegi("run", "--bind", "r=2", "--bind", "θ=0.7", str(f))
        assert r.returncode == 0
        assert math.isclose(float(r.stdout), 4 * math.sin(0.7) ** 2, rel_tol=1e-12)

    def test_bind_tensor_and_precision(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("[|r (* 2 r)|]_i\n(sin θ)\n", encoding="utf-8")
        r = tegi("run", "--bind", "r=3", "--bind", "θ=0.7", "--precision", "3", str(f))
        assert r.returncode == 0
        assert r.stdout == "[|3 6|]_i\n0.644\n"

    def test_negative_precision_is_a_usage_error(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("x\n", encoding="utf-8")
        r = tegi("run", "--bind", "x=1", "--precision", "-1", str(f))
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr.splitlines()[-1] == "tegi: error: --precision must be 0 or more, got -1"
        assert "Traceback" not in r.stderr

    def test_bind_booleans_inside_tensors(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(less-than? [|1 2|]~i [|2 1|]~i)\n", encoding="utf-8")
        r = tegi("run", "--bind", "r=3", str(f))
        assert r.returncode == 0
        assert r.stdout == "[|#t #f|]~i\n"

    def test_bind_power_overflow_is_an_error(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("x^2\n", encoding="utf-8")
        r = tegi("run", "--bind", "x=1e200", str(f))
        assert r.returncode == 1
        assert r.stderr == "error: numeric overflow\n"
        assert "Traceback" not in r.stderr

    def test_bind_coefficient_overflow_is_an_error(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(* 10^400 x)\n", encoding="utf-8")
        r = tegi("run", "--bind", "x=1", str(f))
        assert r.returncode == 1
        assert r.stderr == "error: numeric overflow\n"
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize(
        "program, binds, last_line",
        [
            ("(sin x)", ["x=1e400"],
             "tegi: error: --bind 'x=1e400': '1e400' is not a finite number"),
            ("(sin (* x y))", ["x=1e200", "y=1e200"], "error: numeric overflow"),
            ("(* x y)", ["x=1e200", "y=1e200"], "error: numeric overflow"),
            ("(+ x (* -1 y))", ["x=1e400", "y=1e400"],
             "tegi: error: --bind 'x=1e400': '1e400' is not a finite number"),
        ],
        ids=["infinite-bind", "infinite-argument", "infinite-product", "infinite-difference"],
    )
    def test_bind_non_finite_is_an_error(self, tmp_path, program, binds, last_line):
        f = tmp_path / "s.tegi"
        f.write_text(program + "\n", encoding="utf-8")
        r = tegi("run", *(arg for b in binds for arg in ("--bind", b)), str(f))
        assert r.returncode != 0
        assert r.stdout == ""
        assert r.stderr.splitlines()[-1] == last_line
        assert "Traceback" not in r.stderr

    def test_bind_rejects_garbage(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("1\n", encoding="utf-8")
        assert tegi("run", "--bind", "r", str(f)).returncode != 0
        assert tegi("run", "--bind", "r=abc", str(f)).returncode != 0

    def test_reader_closing_the_pipe_early_ends_the_run_quietly(self, tmp_path):
        # about 2 MB of output, more than any pipe holds, so the writer is
        # still writing when the reader goes away; SIGPIPE ends it, as it
        # ends any Unix tool, and a shell reports 128 + 13
        f = tmp_path / "big.tegi"
        row = " ".join(str(v) for v in range(1000))
        f.write_text(f"(define $v [|{row}|])\n" + "v\n" * 500, encoding="utf-8")
        proc = subprocess.Popen(
            [sys.executable, "-m", "tegi.cli", "run", str(f)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(1) == b"["
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == -signal.SIGPIPE
        assert stderr == b""

    def test_pipe_closed_before_the_first_write_ends_the_run_quietly(self, tmp_path):
        # the whole output fits the buffer, so the write fails at the flush
        f = tmp_path / "s.tegi"
        f.write_text("(+ 1 2)\n", encoding="utf-8")
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            r = subprocess.run(
                [sys.executable, "-m", "tegi.cli", "run", str(f)],
                stdout=write_end,
                stderr=subprocess.PIPE,
            )
        finally:
            os.close(write_end)
        assert r.returncode == -signal.SIGPIPE
        assert r.stderr == b""


class TestRepl:
    def test_matches_run_byte_for_byte(self, tmp_path):
        src = "(. [|1 2 3|]~i [|10 20 30|]_i)\n"
        f = tmp_path / "s.tegi"
        f.write_text(src, encoding="utf-8")
        assert tegi("repl", stdin=src).stdout == tegi("run", str(f)).stdout

    def test_persistent_environment(self):
        r = tegi("repl", stdin="(define $a 20)\n(+ a 1)\n")
        assert r.returncode == 0
        assert r.stdout == "21\n"

    def test_multi_line_form(self):
        r = tegi("repl", stdin="(+ 1\n2)\n")
        assert r.stdout == "3\n"

    def test_open_brackets_of_every_kind_continue_onto_the_next_line(self):
        r = tegi("repl", stdin="(let {[$x 1\n]} x)\n")
        assert r.stdout == "1\n"
        assert r.stderr == ""

    def test_a_closer_of_the_wrong_kind_is_reported_at_once(self):
        # any closer closes the innermost bracket, so the input is finished
        # and the parser reports the ')' that does not match the '[|'
        r = tegi("repl", stdin="[|1 2)\n(+ 1 1)\n")
        assert r.stderr == "error: line 1, col 6: unexpected ')'\n"
        assert r.stdout == "2\n"

    def test_an_unterminated_string_continues_onto_the_next_line(self):
        r = tegi("repl", stdin='"ab\ncd"\n(+ 1 1)\n')
        assert r.stdout == '"ab\ncd"\n2\n'
        assert r.stderr == ""

    def test_error_recovers(self):
        r = tegi("repl", stdin="(derivative r 2)\n(+ 1 2)\n")
        assert r.returncode == 0
        assert r.stdout == "3\n"
        assert "error" in r.stderr

    def test_quit_stops_reading(self):
        r = tegi("repl", stdin=":quit\n(+ 1 1)\n")
        assert r.returncode == 0
        assert r.stdout == ""

    def test_env_lists_bindings(self):
        r = tegi("repl", stdin="(define $v [|1 2|])\n:env\n")
        lines = r.stdout.splitlines()
        assert "v = [|1 2|]" in lines
        assert "contract = #<function contract>" in lines

    def test_env_spells_a_supersubscript_signature(self):
        r = tegi("repl", stdin="(define $T~_i [|1 2|]~_i)\n:env\n")
        assert "T~_ = [|1 2|]" in r.stdout.splitlines()

    def test_env_with_a_value_too_deep_to_print_is_one_error(self, tmp_path):
        f = tmp_path / "lib.tegi"
        f.write_text(DEEP_TUPLE.removesuffix("b\n"), encoding="utf-8")
        r = tegi("repl", stdin=f":load {f}\n:env\n(+ 1 2)\n")
        assert r.returncode == 0
        assert r.stderr == "error: b: recursion too deep\n"
        assert r.stdout.splitlines()[-1] == "3"
        assert "Traceback" not in r.stderr

    def test_load_file(self, tmp_path):
        f = tmp_path / "lib.tegi"
        f.write_text("(define $a 42)\n", encoding="utf-8")
        r = tegi("repl", stdin=f":load {f}\n(+ a 1)\n")
        assert r.stdout == "43\n"

    @pytest.mark.parametrize(
        "content, message",
        [(NOT_UTF8, NOT_UTF8_ERROR), (DEEP_TUPLE.encode(), TOO_DEEP_ERROR)],
        ids=["not-utf8", "too-deep-to-print"],
    )
    def test_failed_load_is_one_error_and_the_session_goes_on(self, tmp_path, content, message):
        f = tmp_path / "lib.tegi"
        f.write_bytes(content)
        r = tegi("repl", stdin=f":load {f}\n(+ 1 2)\n")
        assert r.returncode == 0
        assert r.stdout == "3\n"
        assert r.stderr == message.format(path=f) + "\n"
        assert "Traceback" not in r.stderr

    def test_unknown_command(self):
        r = tegi("repl", stdin=":bogus\n(+ 1 1)\n")
        assert "unknown command" in r.stderr
        assert r.stdout == "2\n"


class TestCheck:
    def test_golden_corpus_passes(self):
        r = tegi("check", str(CORPUS))
        assert r.returncode == 0, r.stdout + r.stderr
        assert "0 failed" in r.stdout

    def test_one_wrong_annotation(self, tmp_path):
        good = tmp_path / "good.tegi"
        good.write_text("(+ 1 1)  ;=> 2\n", encoding="utf-8")
        bad = tmp_path / "bad.tegi"
        bad.write_text("(+ 1 1)  ;=> 3\n", encoding="utf-8")
        r = tegi("check", str(tmp_path))
        assert r.returncode != 0
        assert "1 passed, 1 failed" in r.stdout
        assert "expected '3', got '2'" in r.stdout

    def test_malformed_annotation_continues(self, tmp_path):
        (tmp_path / "a.tegi").write_text("(+ 1 1)  ;=>\n", encoding="utf-8")
        (tmp_path / "b.tegi").write_text("(+ 1 1)  ;=> 2\n", encoding="utf-8")
        r = tegi("check", str(tmp_path))
        assert r.returncode != 0
        assert "malformed annotation" in r.stdout
        assert "PASS b.tegi" in r.stdout

    def test_empty_corpus_warns(self, tmp_path):
        r = tegi("check", str(tmp_path))
        assert r.returncode == 0
        assert "warning" in r.stderr
        assert "0 files" in r.stdout

    def test_missing_directory(self, tmp_path):
        r = tegi("check", str(tmp_path / "nope"))
        assert r.returncode != 0

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda p: p.write_bytes(NOT_UTF8), NOT_UTF8_ERROR),
            (lambda p: p.mkdir(), "error: [Errno 21] Is a directory: '{path}'"),
            (lambda p: p.write_text(DEEP_TUPLE, encoding="utf-8"), TOO_DEEP_ERROR),
        ],
        ids=["not-utf8", "directory", "too-deep-to-print"],
    )
    def test_file_that_fails_to_run_fails_and_the_rest_are_checked(self, tmp_path, make, message):
        bad = tmp_path / "a.tegi"
        make(bad)
        (tmp_path / "b.tegi").write_text("(+ 1 1)  ;=> 2\n", encoding="utf-8")
        r = tegi("check", str(tmp_path))
        assert r.returncode == 1
        assert r.stdout == (
            f"FAIL a.tegi\n  {message.format(path=bad)}\n"
            "PASS b.tegi\nchecked 2 files: 1 passed, 1 failed\n"
        )
        assert r.stderr == ""
