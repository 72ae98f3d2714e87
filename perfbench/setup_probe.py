"""One set-up of a workload, as a fresh process: import cmvlq, generate the inputs.

    python3 perfbench/setup_probe.py <workload> <seed> <directory>

run.py times this process from spawn to exit several times per run and
reports the median as setup_s.
"""

import os
import sys

# BLAS threads are pinned in the environment run.py passes down.
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import cmvlq.cli  # noqa: E402,F401

import workloads  # noqa: E402

workloads.make_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
