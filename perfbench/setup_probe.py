"""Print the seconds taken to import sparselab and build the given systems,
then the median time of the speed kernel measured right after.

    python3 perfbench/setup_probe.py '[{"kind": "ap", "n": 10007, "k": 3}]'

Run by run.py in a fresh interpreter, so the import is cold for Python
(the operating system's file cache may be warm).
"""

import json
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

t0 = time.perf_counter()
import sparselab  # noqa: E402

for desc in json.loads(sys.argv[1]):
    sparselab.build_system(desc)
elapsed = time.perf_counter() - t0

sys.path.insert(0, str(HERE))
import speed  # noqa: E402

print(repr(elapsed), repr(statistics.median(speed.kernel() for _ in range(15))))
