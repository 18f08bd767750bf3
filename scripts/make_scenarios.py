#!/usr/bin/env python3
"""Write the benchmark scenario files for CLI runs.

Produces the ten noiseless direct-command scenarios, the five
noise-calibrated ones, and the thirteen held-out noisy layouts (every
type-A and type-B layout) in separate directories:

    python scripts/make_scenarios.py out/
    agnav batch --scenarios out/noiseless --seeds 0 --out noiseless.csv
    agnav batch --scenarios out/noisy --seeds 0,1,2,3,4 --out noisy.csv
    agnav batch --scenarios out/heldout --seeds 0,1,2,3,4,5,6,7,8,9 --out heldout.csv
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from agnav.presets import (
    acceptance_type_a_suite,
    heldout_suite,
    noise_batch_suite,
    write_scenarios,
)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "scenarios_out"
    noiseless = write_scenarios(acceptance_type_a_suite(), os.path.join(root, "noiseless"))
    noisy = write_scenarios(noise_batch_suite(), os.path.join(root, "noisy"))
    heldout = write_scenarios(heldout_suite(), os.path.join(root, "heldout"))
    print(f"wrote {len(noiseless)} noiseless scenarios, {len(noisy)} noisy ones and "
          f"{len(heldout)} held-out ones under {root}/")


if __name__ == "__main__":
    main()
