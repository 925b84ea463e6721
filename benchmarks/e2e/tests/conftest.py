"""Self-tests of the benchmark harness; run with ``pytest benchmarks/e2e/tests``.

Not part of the tier-1 suite (``testpaths`` names ``tests`` only).
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for entry in (HERE.parent, HERE.parents[2] / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
