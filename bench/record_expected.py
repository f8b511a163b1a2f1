#!/usr/bin/env python3
"""Print the exact unit outputs that ``run.py`` checks against.

Run from the root of a checkout whose program is known to be correct::

    python3 bench/record_expected.py > bench/expected.json

Constructions are deterministic, so the layered and hardened entries are
seed-free; the IC grid is recorded for ``IC_SEEDS``.  Under any other
seed the benchmark checks the grid with the from-scratch oracle and by
repetition instead.
"""

import json

from run import import_program

IC_SEEDS = range(32)


def main() -> None:
    _tracing, workloads = import_program()
    expected = {}
    for name, cls in workloads.WORKLOADS.items():
        expected[name] = {}
        for size in cls.sizes:
            if cls is workloads.ICGrid:
                entry = {}
                for seed in IC_SEEDS:
                    w = cls(size, seed)
                    entry[str(seed)] = w.observe(w.unit())
            else:
                w = cls(size, 0)
                entry = w.observe(w.unit())
            expected[name][size] = entry
    print(json.dumps(expected, indent=1))


if __name__ == "__main__":
    main()
