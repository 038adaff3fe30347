"""Record the output digest of every pool item into reference.json.

Usage: python3 bench/record_reference.py

Run this only at the commit that defines the benchmark: the digests are the
outputs that every later commit must reproduce.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import completequadrics as cq  # noqa: E402

import workloads  # noqa: E402


def main():
    ref = {}
    for item in workloads.pool():
        ref[workloads.key(item)] = workloads.reference_digest(cq, item)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print("recorded %d items" % len(ref))


if __name__ == "__main__":
    main()
