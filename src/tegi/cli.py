"""Command-line front end: script runner, REPL, and golden-corpus checker.

Values go to stdout, diagnostics to stderr, everything in UTF-8.  The
runner and the REPL share one rendering path, so the same expression
prints identically in both.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__, lang
from .errors import LexError, TegiError
from .evaluator import Interpreter, format_value
from .symexpr import evaluate_at

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


def _numeric(binds: dict, precision: int):
    """A scalar printer: the value at the bound symbols, to `precision` digits."""
    return lambda e: f"{evaluate_at(e, binds):.{precision}g}"


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


def _eval_and_print(interp: Interpreter, text: str, scalar=None) -> None:
    """Evaluate top-level forms eagerly, printing each non-define value."""
    for value in interp.iter_source(text):
        print(format_value(value, scalar))


def run_script(path: str, dump: bool, binds, precision: int) -> int:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if dump:
            for node in lang.parse_program(text):
                print(lang.unparse(node))
            return 0
        scalar = None if binds is None else _numeric(binds, precision)
        _eval_and_print(Interpreter(), text, scalar)
    except TegiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------- repl mode


def _incomplete(src: str) -> bool:
    """Does the buffered input still have an open bracket or literal?"""
    try:
        tokens = lang.tokenize(src)
    except LexError as exc:
        return "unterminated" in str(exc)
    depth = 0
    for t in tokens:
        if t.type in ("(", "[", "{", "[|"):
            depth += 1
        elif t.type in (")", "]", "}", "|]"):
            depth -= 1
    return depth > 0


def _signature_name(key) -> str:
    if isinstance(key, tuple):
        name, sig = key
        return name + "".join("~" if v == 1 else "_" for v in sig)
    return key


def _print_env(interp: Interpreter) -> None:
    frame = interp.global_env.bindings
    for key in sorted(frame, key=_signature_name):
        print(f"{_signature_name(key)} = {format_value(frame[key])}")


def repl() -> int:
    interp = Interpreter()
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
        if not buffer and line.strip().startswith(":"):
            command, _, rest = line.strip().partition(" ")
            if command == ":quit":
                return 0
            if command == ":env":
                _print_env(interp)
            elif command == ":load":
                path = rest.strip()
                try:
                    text = Path(path).read_text(encoding="utf-8")
                    _eval_and_print(interp, text)
                except (OSError, TegiError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
            else:
                print(f"error: unknown command {command}", file=sys.stderr)
            continue
        buffer += line
        if not buffer.strip() or _incomplete(buffer):
            continue
        try:
            _eval_and_print(interp, buffer)
        except TegiError as exc:
            print(f"error: {exc}", file=sys.stderr)
        buffer = ""


# ---------------------------------------------------------------- check mode


def _check_file(path: Path) -> list[str]:
    """Run one corpus file; return a list of mismatch descriptions."""
    text = path.read_text(encoding="utf-8")
    problems = []
    expected = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if ";=>" not in line:
            continue
        want = line.split(";=>", 1)[1].strip()
        if not want:
            problems.append(f"line {lineno}: malformed annotation (empty ;=>)")
            continue
        expected.append((lineno, want))
    try:
        got = [format_value(v) for v in Interpreter().eval_source(text)]
    except TegiError as exc:
        return problems + [f"error: {exc}"]
    if len(got) != len(expected):
        problems.append(f"{len(expected)} annotations but {len(got)} printed values")
    for (lineno, want), actual in zip(expected, got):
        if want != actual:
            problems.append(f"line {lineno}: expected {want!r}, got {actual!r}")
    return problems


def check_corpus(directory: str) -> int:
    root = Path(directory)
    if not root.is_dir():
        print(f"error: not a directory: {directory}", file=sys.stderr)
        return 1
    files = sorted(root.glob("*.tegi"))
    if not files:
        print(f"warning: no .tegi files in {directory}", file=sys.stderr)
        print("checked 0 files: all passed")
        return 0
    failed = 0
    for path in files:
        problems = _check_file(path)
        if problems:
            failed += 1
            print(f"FAIL {path.name}")
            for p in problems:
                print(f"  {p}")
        else:
            print(f"PASS {path.name}")
    print(f"checked {len(files)} files: {len(files) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------- entry point


def main(argv: list[str] | None = None) -> int:
    _force_utf8()
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
        binds = _parse_bindings(args.bind, parser)
        return run_script(args.file, args.dump_desugared, binds, args.precision)
    if args.mode == "repl":
        return repl()
    return check_corpus(args.directory)


if __name__ == "__main__":
    sys.exit(main())
