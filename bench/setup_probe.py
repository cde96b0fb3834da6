"""Print the seconds this fresh process takes from `import tegi` to a ready
`Interpreter()` with the prelude loaded: the set-up every `tegi run` pays.

Run with the engine's source directory on PYTHONPATH.
"""

import time

start = time.perf_counter()
import tegi  # noqa: E402

tegi.Interpreter()
print(time.perf_counter() - start)
