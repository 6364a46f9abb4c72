"""Pin the output fingerprint of each workload for a range of seeds.

Run from the repository root::

    python3 perfbench/pin.py --seeds 0-31 [--workload pilot-pipeline ...]

Runs each workload once per seed at full scale and records its output
fingerprint in ``perfbench/fingerprints.json``, which ``run.py`` checks
every pass against. Re-pinning is only right when the simulated output
is meant to change; a pin that changes is reported.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.run import PINS, load_library  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    _, workloads = load_library()
    names = args.workload or list(workloads.WORKLOADS)

    pins = {}
    if os.path.exists(PINS):
        with open(PINS) as fh:
            pins = json.load(fh)
    for name in names:
        table = pins.setdefault(name, {})
        for seed in range(lo, hi + 1):
            workload = workloads.WORKLOADS[name](seed)
            workload.setup()
            fingerprint = workload.measure().fingerprint
            old = table.get(str(seed))
            if old is not None and old != fingerprint:
                print(f"{name} seed {seed}: pin changed {old} -> {fingerprint}")
            table[str(seed)] = fingerprint
            print(f"{name} seed {seed}: {fingerprint}", flush=True)
        pins[name] = dict(sorted(table.items(), key=lambda kv: int(kv[0])))
    with open(PINS, "w") as fh:
        json.dump(dict(sorted(pins.items())), fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
