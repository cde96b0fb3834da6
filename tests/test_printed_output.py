"""Printed output pinned byte for byte.

`tegi run` on the 2-sphere corpus program and on each benchmark program,
read where they are, must print exactly the file of the same name under
`tests/expected/`.  A change that prints any value differently, by a
term's order or a factor's spelling, fails here.  `tegi run
--dump-desugared` on every corpus file, benchmark program and the prelude
must print exactly the `.dump` file of the same name: the desugared
program changes only with the language.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PROGRAMS = [ROOT / "tests" / "corpus" / "riemann_s2.tegi"] + [
    ROOT / "bench" / "programs" / f"{name}.tegi" for name in ("hodge3", "hodge4", "schwarzschild")
]
DUMPED = (
    sorted((ROOT / "tests" / "corpus").glob("*.tegi"))
    + PROGRAMS[1:]
    + [ROOT / "src" / "tegi" / "prelude.tegi"]
)


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_tegi_run_prints_the_expected_file(program):
    expected = ROOT / "tests" / "expected" / f"{program.stem}.out"
    done = subprocess.run(
        [sys.executable, "-m", "tegi.cli", "run", str(program)], capture_output=True
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected.read_bytes()


@pytest.mark.parametrize("program", DUMPED, ids=lambda p: p.name)
def test_dump_desugared_prints_the_expected_file(program):
    expected = ROOT / "tests" / "expected" / f"{program.stem}.dump"
    done = subprocess.run(
        [sys.executable, "-m", "tegi.cli", "run", "--dump-desugared", str(program)],
        capture_output=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected.read_bytes()
