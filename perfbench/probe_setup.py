"""Time set-up in a fresh process: import flagcones and build a workload's inputs.

Started by run.py with PYTHONPATH pointing at the checkout's sources; prints
the seconds taken as its last line.
"""

import argparse

import workloads

parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
parser.add_argument("--smoke", action="store_true")
args = parser.parse_args()
print(workloads.setup(args.workload, args.smoke)[1])
