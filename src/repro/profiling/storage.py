"""On-disk layout of a measurement campaign: shards + manifest.

A campaign directory looks like::

    campaign_dir/
      manifest.json            # config fingerprint, baselines, batch records
      report.json              # final CampaignReport (rewritten every run)
      shards/
        batch-0000.json        # completed batches, LatencyDataset schema
        batch-0001.json
        ...

Every write is atomic (temp file + `os.replace` via
`repro.utils.atomic_write_text`), and the manifest is only updated *after*
its batch's shard is durably in place.  A campaign killed at any point
therefore leaves a directory from which `CampaignRunner` resumes without
re-measuring a single completed batch, and without ever reading a
half-written file.

The manifest is compact JSON.  It is rewritten whole after every batch,
and ``json.dumps`` with ``indent`` falls back to CPython's pure-Python
encoder, which made those rewrites a visible share of a campaign's CPU.
Its readers only ``json.loads`` it, and it carries wall-clock timings, so
its bytes were never a reproducibility contract; shards and reports are.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from ..data.dataset import DatasetError, LatencyDataset
from ..utils import atomic_write_text

__all__ = ["CampaignStore", "MANIFEST_VERSION"]

MANIFEST_VERSION = 1


class CampaignStore:
    """Paths and atomic IO for one campaign directory."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self.shard_dir = self.root / "shards"
        self.manifest_path = self.root / "manifest.json"
        self.report_path = self.root / "report.json"

    def ensure_layout(self) -> None:
        self.shard_dir.mkdir(parents=True, exist_ok=True)

    # ----------------------------- manifest ---------------------------- #

    def load_manifest(self) -> Optional[dict]:
        """The manifest dict, or None for a fresh campaign directory."""
        if not self.manifest_path.exists():
            return None
        try:
            manifest = json.loads(self.manifest_path.read_text())
        except json.JSONDecodeError as exc:
            raise DatasetError(
                f"campaign manifest {self.manifest_path} is not valid JSON: {exc}"
            ) from exc
        version = manifest.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise DatasetError(
                f"campaign manifest {self.manifest_path} has unsupported "
                f"manifest_version {version!r} (expected {MANIFEST_VERSION})"
            )
        return manifest

    def save_manifest(self, manifest: dict) -> None:
        atomic_write_text(self.manifest_path, json.dumps(manifest))

    # ------------------------------ shards ----------------------------- #

    def shard_name(self, index: int) -> str:
        return f"shards/batch-{index:04d}.json"

    def shard_path(self, index: int) -> Path:
        return self.root / self.shard_name(index)

    def has_shard(self, index: int) -> bool:
        return self.shard_path(index).exists()

    def write_shard(self, index: int, dataset: LatencyDataset) -> str:
        """Persist one completed batch; returns the manifest-relative name."""
        self.ensure_layout()
        dataset.save(self.shard_path(index))
        return self.shard_name(index)

    def read_shard(self, index: int) -> LatencyDataset:
        return LatencyDataset.load(self.shard_path(index))
