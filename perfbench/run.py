"""Benchmark of orbitkit's four workloads: reduction, classification,
polarization and albert.

Run from the root of a checkout, with BLAS pinned to one thread:

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \\
        python3 perfbench/run.py --workload reduction --seed 1 --seconds 10 --trace 0

One process runs one workload.  It builds the inputs from --seed, sets the
workload up, then repeats whole rounds of the same items until --seconds
of round time have passed.  Each round's outputs are checked outside the
timed region (checks.py).  Between rounds it times PROBES fresh set-ups,
each in a child interpreter (probe.py).  The last line of stdout is one
JSON object:

    --trace 0: items_per_s (median over rounds), setup_s (median over
               probes), peak_rss_mb (this process)
    --trace 1: one traced round; per-layer call counts and self seconds
               over set-up, warm-up and that round (layertrace.py), and
               import.orbitkit_s (median over probes)

A record of the run goes to perfbench-runs/ in the checkout.
"""

import argparse
import gc
import json
import pickle
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBES = 7
MIN_ROUNDS = 3
MAX_FAULTS_SHOWN = 5


def probe(root, wl, inputs):
    """One fresh interpreter's set-up times, as measured by probe.py."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), wl.name],
        input=pickle.dumps(wl.warm_inputs(inputs)), cwd=root,
        capture_output=True, timeout=120, check=True)
    return json.loads(done.stdout.decode().strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "orbitkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/orbitkit under {root}; run from the root of a checkout")
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(HERE))

    import checks
    broken = checks.selftest()
    if broken:
        sys.exit("perfbench: checks accept planted wrong answers: " + "; ".join(broken))

    import layertrace
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]

    inputs = wl.make_inputs(args.seed)

    tracer = layertrace.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    state = wl.setup()
    wl.warm(state, wl.warm_inputs(inputs))

    # The probes are spread over the run, one each time another 1/PROBES of
    # --seconds has passed, so that their median samples the machine's state
    # over the whole run rather than over its first seconds.
    round_s, probes, failed, faults = [], [], 0, []
    while True:
        if len(probes) < PROBES and sum(round_s) >= len(probes) * args.seconds / PROBES:
            probes.append(probe(root, wl, inputs))
        gc.collect()
        t0 = time.perf_counter()
        out = wl.run_round(state, inputs)
        round_s.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
        n_failed, round_faults = wl.check(state, inputs, out, first=len(round_s) == 1)
        failed += n_failed
        faults += round_faults
        del out
        if tracer or (len(round_s) >= MIN_ROUNDS and sum(round_s) >= args.seconds):
            break
    probes += [probe(root, wl, inputs) for _ in range(PROBES - len(probes))]

    if tracer:
        metrics = tracer.metrics(statistics.median(p["import_s"] for p in probes))
    else:
        metrics = {
            "items_per_s": {"value": statistics.median(wl.items / s for s in round_s),
                            "unit": "items/s"},
            "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MiB"},
        }
    result = {"correct": failed == 0, "attempted": wl.items * len(round_s),
              "failed": failed, "metrics": metrics}

    record = root / "perfbench-runs" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(exist_ok=True)
    record.write_text(json.dumps({**vars(args), "result": result, "round_s": round_s,
                                  "probes": probes, "faults": faults}, indent=1) + "\n")

    print(f"perfbench {wl.name}: {len(round_s)} rounds of {wl.items} items, "
          f"{failed} failed", file=sys.stderr)
    for fault in faults[:MAX_FAULTS_SHOWN]:
        print("  fault:", fault, file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
