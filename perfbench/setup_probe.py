"""Time one set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Runs ``run.timed_setup``: the clock starts just before ``import gwlab.cli``
and stops when the workload's inputs are built.  Prints one JSON line with
``import_s`` and ``setup_s`` at the nominal pace (see ``pace.py``), the raw
``raw_setup_s`` and the sampled ``pace_s``.
"""

import json
import sys

import run

if __name__ == "__main__":
    sample, _, _ = run.timed_setup(sys.argv[1], int(sys.argv[2]))
    print(json.dumps(sample))
