"""Print the set-up time of one workload, measured in this fresh interpreter,
and then the time of the calibration kernel, both in seconds.  run.py starts
it several times and reports the median of the scaled set-up times.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.pin_environment()
    seconds, _ = workloads.setup(sys.argv[1], int(sys.argv[2]))
    print(repr(seconds), repr(workloads.calibrate()))
