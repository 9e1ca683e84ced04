"""Run manifests: enough provenance to reproduce a run byte for byte."""

from __future__ import annotations

import datetime
import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

MANIFEST_NAME = "run.manifest"


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    tool_version: str
    command: str
    argv: list[str]
    master_seed: int | None
    input_digests: dict[str, str] = field(default_factory=dict)
    timings: dict[str, float] = field(default_factory=dict)
    cpu_s: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: dict[str, float] = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    created_utc: str = ""

    def save(self, out_dir: str | Path) -> Path:
        if not self.created_utc:
            self.created_utc = (
                datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
            )
        path = Path(out_dir) / MANIFEST_NAME
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        return cls(**data)
