"""Command-line front end: script runner, REPL, and golden-corpus checker.

Values go to stdout, diagnostics to stderr, everything in UTF-8.  Every
mode reads a file with `_read_source` and evaluates it with `Interpreter.run`;
the runner and the REPL print through `_printer`, so the same expression
prints identically in both, and any failure is one `error: ...` line.
"""

from __future__ import annotations

import argparse
import math
import os
import signal
import sys

from . import __version__, lang
from .errors import EvalError, LexError, TegiError
from .evaluator import Interpreter, format_value
from .symexpr import evaluate_at
from .tensor import VARIANCE_STR

PROMPT = "tegi> "


def _force_utf8() -> None:
    for stream in (sys.stdout, sys.stderr):
        reconfigure = getattr(stream, "reconfigure", None)
        if reconfigure is not None:
            try:
                reconfigure(encoding="utf-8")
            except (ValueError, OSError):
                pass


# ---------------------------------------------------------------- rendering


def _printer(binds: dict | None = None, precision: int = 0):
    """An `emit` printing each value, with scalars as floats at `binds` if given."""
    scalar = None if binds is None else lambda e: f"{evaluate_at(e, binds):.{precision}g}"
    return lambda value: print(format_value(value, scalar))


def _parse_bindings(pairs: list[str], parser: argparse.ArgumentParser) -> dict | None:
    if not pairs:
        return None
    binds = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            parser.error(f"--bind expects SYM=VALUE, got {pair!r}")
        try:
            x = float(value)
        except ValueError:
            parser.error(f"--bind {pair!r}: {value!r} is not a number")
        if not math.isfinite(x):
            parser.error(f"--bind {pair!r}: {value!r} is not a finite number")
        binds[name] = x
    return binds


# ---------------------------------------------------------------- run mode


def _pathlib_spelling(path: str) -> str:
    """path as pathlib spells it: no empty or '.' parts, no trailing '/'."""
    root = "//" if path[:2] == "//" and path[2:3] != "/" else "/" if path[:1] == "/" else ""
    return root + "/".join(p for p in path.split("/") if p not in ("", ".")) or "."


def _read_source(path: str) -> str:
    """The UTF-8 text of a source file; a file that cannot be read is a TegiError."""
    try:
        with open(_pathlib_spelling(path), encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise TegiError(str(exc)) from None
    except UnicodeDecodeError as exc:
        raise TegiError(f"{path}: {exc}") from None


def run_script(path: str, dump: bool, binds, precision: int) -> int:
    try:
        text = _read_source(path)
        if dump:
            for node in lang.parse_program(text):
                print(lang.unparse(node))
            return 0
        Interpreter().run(text, _printer(binds, precision))
    except TegiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- repl mode


def _incomplete(src: str) -> bool:
    """Does the buffered input still have an open bracket or string?"""
    try:
        lang.tokenize(src)
    except LexError as exc:
        return "unterminated" in exc.message
    return False


def _signature_name(key) -> str:
    if isinstance(key, tuple):
        name, sig = key
        return name + "".join(VARIANCE_STR[v] for v in sig)
    return key


def _print_env(interp: Interpreter) -> None:
    frame = interp.global_env.bindings
    for key in sorted(frame, key=_signature_name):
        name = _signature_name(key)
        try:  # a value nested deeper than the stack, as `Interpreter.run` guards its forms
            print(f"{name} = {format_value(frame[key])}")
        except RecursionError:
            raise EvalError(f"{name}: recursion too deep") from None


def repl() -> int:
    interp = Interpreter()
    show = _printer()
    interactive = sys.stdin.isatty()
    if interactive:
        print(f"tegi {__version__} (:quit to leave)", file=sys.stderr)
    buffer = ""
    while True:
        if interactive:
            sys.stderr.write(PROMPT if not buffer else "  ... ")
            sys.stderr.flush()
        line = sys.stdin.readline()
        if not line:
            return 0
        try:
            if not buffer and line.strip().startswith(":"):
                command, _, rest = line.strip().partition(" ")
                if command == ":quit":
                    return 0
                if command == ":env":
                    _print_env(interp)
                elif command == ":load":
                    interp.run(_read_source(rest.strip()), show)
                else:
                    raise TegiError(f"unknown command {command}")
                continue
            buffer += line
            if not buffer.strip() or _incomplete(buffer):
                continue
            interp.run(buffer, show)
        except TegiError as exc:
            print(f"error: {exc}", file=sys.stderr)
        buffer = ""


# ---------------------------------------------------------------- check mode


def _check_file(path: str) -> list[str]:
    """Run one corpus file; return a list of mismatch descriptions."""
    problems, expected, got = [], [], []
    try:
        text = _read_source(path)
        for lineno, line in enumerate(text.splitlines(), start=1):
            if ";=>" not in line:
                continue
            want = line.split(";=>", 1)[1].strip()
            if not want:
                problems.append(f"line {lineno}: malformed annotation (empty ;=>)")
                continue
            expected.append((lineno, want))
        Interpreter().run(text, lambda v: got.append(format_value(v)))
    except TegiError as exc:
        return problems + [f"error: {exc}"]
    if len(got) != len(expected):
        problems.append(f"{len(expected)} annotations but {len(got)} printed values")
    for (lineno, want), actual in zip(expected, got):
        if want != actual:
            problems.append(f"line {lineno}: expected {want!r}, got {actual!r}")
    return problems


def check_corpus(directory: str) -> int:
    if not os.path.isdir(directory or "."):
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 1
    try:  # every entry named *.tegi, dotfiles and directories too
        names = sorted(n for n in os.listdir(directory or ".") if n.endswith(".tegi"))
    except OSError:
        names = []
    if not names:
        print(f"warning: no .tegi files in {directory}", file=sys.stderr)
        print("checked 0 files: all passed")
        return 0
    failed = 0
    for name in names:
        problems = _check_file(_pathlib_spelling(os.path.join(directory, name)))
        if problems:
            failed += 1
            print(f"FAIL {name}")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"PASS {name}")
    print(f"checked {len(names)} files: {len(names) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- entry point


def main(argv: list[str] | None = None) -> int:
    _force_utf8()
    if hasattr(signal, "SIGPIPE"):  # a reader closing stdout ends tegi as it ends `cat`
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    parser = argparse.ArgumentParser(
        prog="tegi",
        description="Interpreter for tensor index notation with differential forms.",
    )
    parser.add_argument("--version", action="version", version=f"tegi {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)

    p_run = sub.add_parser("run", help="evaluate a .tegi script")
    p_run.add_argument("file", help="path to the script")
    p_run.add_argument(
        "--dump-desugared",
        action="store_true",
        help="print the desugared program instead of evaluating it",
    )
    p_run.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="SYM=VALUE",
        help="bind a symbol numerically and print results as floats",
    )
    p_run.add_argument(
        "--precision",
        type=int,
        default=12,
        metavar="DIGITS",
        help="significant digits for --bind output (default 12)",
    )

    sub.add_parser("repl", help="interactive session")

    p_check = sub.add_parser("check", help="run a directory of annotated golden tests")
    p_check.add_argument("directory", help="directory of .tegi files with ;=> annotations")

    args = parser.parse_args(argv)
    if args.mode == "run":
        if args.precision < 0:
            parser.error(f"--precision must be 0 or more, got {args.precision}")
        binds = _parse_bindings(args.bind, parser)
        return run_script(args.file, args.dump_desugared, binds, args.precision)
    if args.mode == "repl":
        return repl()
    return check_corpus(args.directory)


if __name__ == "__main__":
    sys.exit(main())
