"""Golden outputs: every preset CSV of the session's preset runs against a
compact reference checked in under ``tests/golden``.

The reference of a CSV is ``<label>.csv``, its header with a leading ``row``
column and the kept rows with their index and cells copied verbatim:
every row of the eigenscan and transient CSVs, every ``SPECTRUM_STRIDE``-th
row of a spectrum. ``summary.json`` holds each CSV's row count and column
maxima of |x| and, for a spectrum, its manifest's peak list. A rerun
matches when its row count is the same and every kept cell, column maximum
and peak (omega and power) is within ``TOLERANCE`` of its column's maximum;
an empty (NaN) cell must stay empty.

A change that moves outputs on purpose regenerates the reference by::

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

from conftest import run_presets
from jtcqed.presets import PRESETS

GOLDEN = Path(__file__).with_name("golden")
TOLERANCE = 1e-10
SPECTRUM_STRIDE = 64

LABELS = [label for preset in PRESETS.values() for label, _ in preset.runs]


def read_csv(path) -> tuple[list[str], list[str], np.ndarray]:
    """Header, body lines and the body as floats (an empty cell as NaN)."""
    header, *lines = Path(path).read_text().splitlines()
    cells = [[float(cell) if cell else np.nan for cell in line.split(",")] for line in lines]
    return header.split(","), lines, np.array(cells)


def manifest(csv_path) -> dict:
    return json.loads(Path(csv_path).with_suffix(".manifest.json").read_text())


def write_reference(paths: dict[str, str]):
    """Write ``tests/golden`` from one run of every preset (label -> CSV)."""
    GOLDEN.mkdir(exist_ok=True)
    summary = {}
    for label, path in paths.items():
        header, lines, table = read_csv(path)
        task = manifest(path)["config"]["task"]
        stride = SPECTRUM_STRIDE if task == "spectrum" else 1
        kept = [f"{row},{lines[row]}" for row in range(0, len(lines), stride)]
        (GOLDEN / f"{label}.csv").write_text("\n".join([",".join(["row", *header]), *kept]) + "\n")
        summary[label] = {
            "rows": len(lines),
            "column_max": np.nanmax(np.abs(table), axis=0).tolist(),
        }
        if task == "spectrum":
            summary[label]["peaks"] = [
                [peak["omega"], peak["power"]] for peak in manifest(path)["notes"]["peaks"]
            ]
    (GOLDEN / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")


@pytest.mark.parametrize("label", LABELS)
def test_preset_matches_golden_reference(preset_outputs, label):
    expected = json.loads((GOLDEN / "summary.json").read_text())[label]
    ref_header, _, ref = read_csv(GOLDEN / f"{label}.csv")
    header, _, table = read_csv(preset_outputs[label])
    assert ref_header == ["row", *header]
    assert table.shape[0] == expected["rows"]
    scale = np.array(expected["column_max"])

    kept = table[ref[:, 0].astype(int)]
    assert np.array_equal(np.isnan(kept), np.isnan(ref[:, 1:]))
    gaps = {"kept rows": np.nanmax(np.abs(kept - ref[:, 1:]), axis=0, initial=0.0)}
    gaps["column maxima"] = np.abs(np.nanmax(np.abs(table), axis=0) - scale)
    if "peaks" in expected:
        peaks = [[p["omega"], p["power"]] for p in manifest(preset_outputs[label])["notes"]["peaks"]]
        assert len(peaks) == len(expected["peaks"])
        gaps["peaks"] = np.abs(np.array(peaks) - expected["peaks"]).max(axis=0, initial=0.0)
    for what, gap in gaps.items():
        assert np.all(gap <= TOLERANCE * scale), (
            f"{label} {what}: max |difference| / column maximum {(gap / scale).tolist()}"
        )


def test_no_preset_manifest_lists_unused_keys(preset_outputs):
    # the presets set only keys their tasks read; the rates they leave unset
    # take DissipationParams' defaults
    for label, path in preset_outputs.items():
        assert manifest(path)["notes"]["unused_keys"] == [], label


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out_dir:
        write_reference(run_presets(out_dir))
