"""Show that no output check passes by construction.

    python3 perfbench/run.py --workload <name> --seed 1 --seconds 1
    python3 perfbench/selfcheck.py [workload ...]

Reads the outputs the last benchmark run left in ``.perfbench_out/``,
confirms that every check passes on them, then corrupts a copy of each
output in one way per check and confirms that the check aimed at fails.
Exits with 1 if any check passes on its corrupted copy, or if an output is
missing.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

import checks
from run import ROOT


def _scaled(table, factor):
    out = table.copy()
    out[:, 1] *= factor
    return out


def _rolled(table, bins):
    out = table.copy()
    out[:, 1] = np.roll(out[:, 1], bins)
    return out


def _peak_scaled(table, factor):
    out = table.copy()
    out[np.argmax(out[:, 1]), 1] *= factor
    return out


def _imbalance_row(table, row, dn):
    out = table.copy()
    n1, n2 = out[row, 1] + dn, out[row, 2]
    out[row, 1], out[row, 3] = n1, (n1 - n2) / (n1 + n2)
    return out


def _set(table, row, column, value):
    out = table.copy()
    out[row, column] = value
    return out


def _shifted(table, row, column, delta):
    return _set(table, row, column, table[row, column] + delta)


def _swapped(table, row):
    out = table.copy()
    out[row, [1, 2]] = out[row, [2, 1]]
    return out


# task -> (targeted check, description, corruption of the table)
CORRUPTIONS = {
    "spectrum": [
        ("spectrum.grid", "last frequency dropped", lambda t: t[:-1]),
        ("spectrum.sum_rule", "spectrum scaled by 1.01", lambda t: _scaled(t, 1.01)),
        ("spectrum.strongest_line", "spectrum shifted by 40 bins", lambda t: _rolled(t, 40)),
        ("spectrum.peak_height", "strongest bin scaled by 1.05", lambda t: _peak_scaled(t, 1.05)),
    ],
    "imbalance": [
        ("imbalance.grid", "one time shifted", lambda t: _shifted(t, 7, 0, 1e-6)),
        ("imbalance.occupations", "one row perturbed, z kept consistent", lambda t: _imbalance_row(t, len(t) // 2, 1e-6)),
        ("imbalance.range", "z set to 1.2 in one row", lambda t: _set(t, 30, 3, 1.2)),
        ("imbalance.z_consistent", "z shifted by 1e-6 in one row", lambda t: _shifted(t, 30, 3, 1e-6)),
    ],
    "g2": [
        ("g2.grid", "one delay shifted", lambda t: _shifted(t, 7, 0, 1e-6)),
        ("g2.reference", "one resonator value shifted by 1e-6", lambda t: _shifted(t, len(t) // 2, 1, 1e-6)),
        ("g2.zero_delay", "g2(0) of the qubit set to 1e-15", lambda t: _set(t, 0, 2, 1e-15)),
    ],
    "eigenscan": [
        ("eigenscan.grid", "one delta shifted", lambda t: _shifted(t, 7, 0, 1e-6)),
        ("eigenscan.ascending", "E1 and E2 swapped in one row", lambda t: _swapped(t, 100)),
        ("eigenscan.levels", "one eigenvalue shifted by 1e-6", lambda t: _shifted(t, 150, 3, 1e-6)),
    ],
}


def selfcheck(workload: str) -> list[str]:
    out_dir = os.path.join(ROOT, ".perfbench_out", workload)
    record = os.path.join(out_dir, "runs.json")
    if not os.path.exists(record):
        return [f"{workload}: no outputs; run the benchmark on it first"]
    with open(record) as handle:
        runs = json.load(handle)["runs"]
    problems = []
    for name, mapping in runs:
        header, table = checks.read_csv(os.path.join(out_dir, f"{name}.csv"))
        failing = {k: v for k, v in checks.check_run(mapping, header, table).items() if v}
        if failing:
            problems.append(f"{name}: checks fail on the real output: {failing}")
        for target, description, corrupt in CORRUPTIONS[mapping["run"]["task"]]:
            message = checks.check_run(mapping, header, corrupt(table)).get(target)
            verdict = "fails as it should" if message else "PASSES"
            print(f"{name}: {description}: {target} {verdict}")
            if not message:
                problems.append(f"{name}: {target} passes on a copy with {description}")
    return problems


def workloads_present():
    base = os.path.join(ROOT, ".perfbench_out")
    return sorted(os.listdir(base)) if os.path.isdir(base) else []


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or workloads_present()
    problems = [p for workload in names for p in selfcheck(workload)]
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    return 1 if problems or not names else 0


if __name__ == "__main__":
    sys.exit(main())
