"""Output checks behind the benchmark's failure count.

A run fails when the CLI exits non-zero, times out, writes a report that does
not validate against ``docs/report_schema.json``, reports a failed property
check, or (for ``extend``) writes values that an independent numpy
recomputation rejects.  Byte identity across the runs of one workload and seed
is checked by the caller from the reports' sha256.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from jsonschema import Draft7Validator

# Slack for the envelope sandwich, relative to the instance's value scale.
ENVELOPE_RTOL = 1e-9


def schema_validator(root: Path) -> Draft7Validator:
    schema = json.loads((root / "docs" / "report_schema.json").read_text())
    return Draft7Validator(schema)


def _euclidean_to(coords: np.ndarray, rows: np.ndarray) -> np.ndarray:
    diff = coords[rows][:, None, :] - coords[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def check_extension(instance: dict, report: dict) -> str | None:
    """f = g exactly on C and f between the (L + eps_eff) McShane envelopes."""
    coords = np.array(instance["points"]["coords"], dtype=float)
    subset = np.array(instance["subset"], dtype=np.intp)
    g = np.array(instance["values"], dtype=float)
    entries = report["entries"]
    index = np.array([e["index"] for e in entries], dtype=np.intp)
    f = np.array([e["value"] for e in entries], dtype=float)
    if not np.array_equal(index, np.arange(len(coords))):
        return "extension entries do not cover every point in order"
    if not np.array_equal(f[subset], g):
        bad = int(subset[np.flatnonzero(f[subset] != g)[0]])
        return f"f != g at subset point {bad}"
    d = _euclidean_to(coords, subset)
    dc = d[:, subset]
    iu = np.triu_indices(len(subset), k=1)
    lip = float(np.max(np.abs(g[:, None] - g[None, :])[iu] / dc[iu]))
    budget = lip + report["params"]["epsilon_effective"]
    upper = (g[:, None] + budget * d).min(axis=0)
    lower = (g[:, None] - budget * d).max(axis=0)
    tol = ENVELOPE_RTOL * max(1.0, float(np.abs(g).max()), budget * float(d.max()))
    viol = np.maximum(f - upper, lower - f)
    if viol.max() > tol:
        return f"f leaves the McShane envelopes at point {int(np.argmax(viol))}"
    return None


def check_report(kind: str, validator: Draft7Validator, instance: dict,
                 report_path: Path) -> str | None:
    """None when the report of a ``kind`` command is correct, else the reason."""
    try:
        report = json.loads(report_path.read_text())
    except (OSError, ValueError) as exc:
        return f"unreadable report: {exc}"
    error = next(iter(validator.iter_errors(report)), None)
    if error is not None:
        return f"schema: {error.message}"
    if kind == "validate" and report.get("ok") is not True:
        return "validation report is not ok"
    if kind == "verify" and report.get("passed") is not True:
        return "verification report has passed != true"
    if kind == "energy" and any(c["status"] == "fail" for c in report["checks"]):
        return "energy report has a failed check"
    if kind == "extend":
        return check_extension(instance, report)
    return None
