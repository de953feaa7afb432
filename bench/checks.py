"""Output checks applied to every benchmark run of `prsafety run`."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Manifest row_counts keys that the generator predicts exactly.
COUNTED = ("pulls", "comments", "commits", "contexts", "repos", "ingest_errors")


def artifact_digest(out_dir: Path) -> str:
    """SHA-256 over every artifact's name and bytes, in name order."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.iterdir() if p.is_file()):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def check_outputs(exit_code: int, out_dir: Path, expected: dict[str, int]) -> list[str]:
    """Problems with one run's outputs; an empty list means the run passed.

    A run passes when it exits 0, its manifest reports the generator's row
    counts and injected ingest errors, models 1 and 2 converge, and model 3
    is recorded as a failure (the sustained flag separates its outcome).
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text("utf-8"))
        models = {
            i: json.loads((out_dir / f"model_{i}.json").read_text("utf-8")) for i in (1, 2)
        }
    except (OSError, ValueError) as exc:
        return [f"unreadable artifacts: {exc}"]
    problems = []
    counts = manifest.get("row_counts", {})
    for key in COUNTED:
        if counts.get(key) != expected[key]:
            problems.append(f"row_counts.{key} is {counts.get(key)}, expected {expected[key]}")
    for i, model in models.items():
        if model.get("converged") is not True:
            problems.append(f"model {i} did not converge")
    if "3" not in manifest.get("model_failures", {}):
        problems.append("model 3 is missing from model_failures")
    return problems
