"""Time one fresh set-up of a workload in this new interpreter.

Usage: python3 perfbench/probe.py <workload> < warm-up inputs (pickled by run.py)

Times `import orbitkit`, then the workload's set-up and its warm-up item;
reading the pickled inputs between the two is not timed.  Prints
{"import_s": ..., "setup_s": ...}, where setup_s includes import_s.
"""

import json
import pickle
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(HERE))

t0 = time.perf_counter()
import orbitkit  # noqa: E402,F401
import_s = time.perf_counter() - t0

import workloads  # noqa: E402

wl = workloads.WORKLOADS[sys.argv[1]]
warm_inputs = pickle.loads(sys.stdin.buffer.read())
t1 = time.perf_counter()
wl.warm(wl.setup(), warm_inputs)
setup_s = import_s + time.perf_counter() - t1
print(json.dumps({"import_s": import_s, "setup_s": setup_s}))
