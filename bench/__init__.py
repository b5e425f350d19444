"""The repo benchmark: five workloads over the public `repro` API.

Run one workload with
``python3 -m bench --workload <name> --seed <n> --seconds <s> --trace <0|1>``
from the repository root; see ``bench/README.md``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The benchmark runs from a bare checkout (nothing installed, no PYTHONPATH),
# so it finds the program under test next to itself.
_SRC = ROOT / "src"
if (_SRC / "repro").is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
