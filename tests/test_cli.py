"""End-to-end tests for the command-line front end.

Everything runs through a subprocess so exit codes and stream
separation are tested for real.
"""

import math
import subprocess
import sys
from pathlib import Path

import pytest

CORPUS = Path(__file__).parent / "corpus"


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

    def test_deep_nesting_is_a_located_parse_error(self, tmp_path):
        f = tmp_path / "s.tegi"
        f.write_text("(+ 1 2)\n" + "(+ 1 " * 1000 + "0" + ")" * 1000 + "\n", encoding="utf-8")
        r = tegi("run", str(f))
        assert r.returncode == 1
        assert r.stdout == ""
        assert r.stderr == "error: line 2, col 1: nesting too deep\n"

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

    def test_load_file(self, tmp_path):
        f = tmp_path / "lib.tegi"
        f.write_text("(define $a 42)\n", encoding="utf-8")
        r = tegi("repl", stdin=f":load {f}\n(+ a 1)\n")
        assert r.stdout == "43\n"

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
