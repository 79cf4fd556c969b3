"""Peak memory of a process that only builds the database and mines it.

Run from the repository root with ``src`` and the root on
``PYTHONPATH``::

    python3 -m perfbench.peak_rss --workload quest-deep baskets.dat

It reads one basket of item ids per line, builds the database with both
vertical indexes, mines it once with the workload's parameters and
prints one JSON line: the process's peak RSS in MiB and the border
digest of the mine, which the caller checks against its own mines.
"""

from __future__ import annotations

import argparse
import json
import resource

from perfbench.run import digest_of, mine
from perfbench.workloads import N_ITEMS, WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("baskets")
    args = parser.parse_args()

    from repro.data.basket import BasketDatabase

    with open(args.baskets, encoding="ascii") as handle:
        rows = [tuple(int(item) for item in line.split()) for line in handle]
    db = BasketDatabase.from_id_baskets(rows, n_items=N_ITEMS)
    db.item_counts()
    db.packed_index()
    digest = digest_of(mine(db, WORKLOADS[args.workload].mine))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"peak_rss_mb": peak, "digest": digest}))


if __name__ == "__main__":
    main()
