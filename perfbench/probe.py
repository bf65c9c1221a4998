"""Set-up probe: import mechlearn the way the benchmark does, read the
workload's configs, then print ``ready``. The parent times the interval
from starting this process to that line.

    python3 perfbench/probe.py SRC_DIR CONFIG...
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from mechlearn import cli  # noqa: E402,F401  (numpy, scipy.optimize, all layers)

for path in sys.argv[2:]:
    with open(path, encoding="utf-8") as fh:
        json.load(fh)
print("ready", flush=True)
