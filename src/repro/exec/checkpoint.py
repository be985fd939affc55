"""JSONL trial checkpointing shared by every executor backend.

One :class:`TrialCheckpoint` owns the on-disk lifecycle of a single grid
point's results file: a ``{"spec": ...}`` header line followed by one
``{"trial": i, "record": ...}`` line per finished trial.  Records are
appended (and flushed) as they finish, an existing file is used to skip
already-finished trial indices on resume, and a completed file is rewritten
in canonical trial-sorted order -- so the bytes on disk are identical for
any executor backend, worker count or interruption history.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Sequence

from repro.fault.runner import CampaignSpec, _canonical_json, _resume_key

#: A per-trial record: a JSON-serialisable mapping produced by a trial kernel.
TrialRecord = dict


def campaign_results_path(results_dir: str | Path, index: int, spec: CampaignSpec) -> Path:
    """Checkpoint file of one expanded campaign inside a sweep directory."""
    slug = "".join(c if c.isalnum() or c in "=,._-" else "_" for c in spec.label)
    return Path(results_dir) / f"{index:03d}-{slug}.jsonl"


class TrialCheckpoint:
    """Append/resume/canonicalise the JSONL results file of one campaign."""

    def __init__(self, spec: CampaignSpec, path: str | Path | None) -> None:
        self.spec = spec
        self.path = Path(path) if path is not None else None
        self._sink = None

    # ------------------------------------------------------------------ #
    def load(self) -> dict[int, TrialRecord]:
        """Records already on disk, keyed by trial index (resume state).

        Raises if the file belongs to a different campaign spec (everything
        but the cosmetic ``name`` label and the extendable ``n_trials`` count
        participates in the identity check -- trial records are
        count-invariant, so a file written at one ``n_trials`` resumes under
        another).  Also raises if the file holds records *past* the spec's
        trial count: they are committed trial data, and completing the run
        would canonically rewrite the file without them -- a spec whose
        ``n_trials`` shrank must not silently destroy results.  Torn lines
        from an interrupted write are skipped and recomputed.
        """
        if self.path is None or not self.path.exists():
            return {}
        spec_dict, records = parse_results_text(self.path.read_text())
        if spec_dict is not None and _resume_key(spec_dict) != _resume_key(self.spec.to_dict()):
            raise ValueError(
                f"{self.path} holds results for a different "
                "campaign spec; refusing to resume"
            )
        extra = sorted(i for i in records if i >= self.spec.n_trials)
        if extra:
            raise ValueError(
                f"{self.path} holds {len(records)} committed trial records up "
                f"to index {max(records)}, but the spec asks for only "
                f"{self.spec.n_trials} trials; refusing to resume (completing "
                "the run would rewrite the file and destroy the "
                f"{len(extra)} records past the spec count -- raise n_trials "
                "or point the run at a fresh results path)"
            )
        return dict(records)

    # ------------------------------------------------------------------ #
    def open(self, header: bool):
        """Open the append sink (writing the spec header on a fresh file)."""
        if self.path is None:
            return None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        sink = self.path.open("a")
        if sink.tell() == 0:
            if header:
                sink.write(_canonical_json({"spec": self.spec.to_dict()}) + "\n")
                sink.flush()
        else:
            # A kill mid-write can leave a torn final line without a newline;
            # start appended records on a fresh line so they stay parseable.
            # Probe only the last byte -- the file can be huge.
            with self.path.open("rb") as existing:
                existing.seek(-1, os.SEEK_END)
                last_byte = existing.read(1)
            if last_byte != b"\n":
                sink.write("\n")
                sink.flush()
        self._sink = sink
        return sink

    def append(self, index: int, record: TrialRecord, sink=None) -> None:
        """Checkpoint one finished trial (flushed immediately)."""
        sink = sink if sink is not None else self._sink
        if sink is None:
            return
        sink.write(_canonical_json({"trial": index, "record": record}) + "\n")
        sink.flush()

    def close(self) -> None:
        if self._sink is not None:
            self._sink.close()
            self._sink = None

    # ------------------------------------------------------------------ #
    def write_canonical(self, ordered: Sequence[TrialRecord]) -> None:
        """Rewrite the completed file in canonical trial-sorted order.

        The header's ``n_trials`` is rewritten to the count actually on disk,
        so an adaptively stopped (or topped-up) point reads back as a
        complete, self-consistent campaign.  For fixed-count runs
        ``len(ordered) == spec.n_trials`` and the bytes are unchanged.
        """
        if self.path is None:
            return
        header_spec = self.spec.to_dict()
        header_spec["n_trials"] = len(ordered)
        lines = [_canonical_json({"spec": header_spec})]
        lines += [
            _canonical_json({"trial": i, "record": record})
            for i, record in enumerate(ordered)
        ]
        content = ("\n".join(lines) + "\n").encode()
        if (
            self.path.exists()
            and self.path.stat().st_size == len(content)
            and self.path.read_bytes() == content
        ):
            return
        # Atomic replace: a kill during the rewrite must not destroy trial
        # lines that were already safely checkpointed.
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_bytes(content)
        os.replace(tmp, self.path)


def parse_results_text(text: str) -> tuple[dict | None, dict[int, TrialRecord]]:
    """Parse checkpoint JSONL text into ``(spec dict or None, records by index)``.

    Unlike :meth:`TrialCheckpoint.load` this does not need the spec up front
    (the header, if present, is returned) and does not bound trial indices.
    """
    spec_dict: dict | None = None
    records: dict[int, TrialRecord] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue  # torn final line from an interrupted run
        if "spec" in entry:
            spec_dict = entry["spec"]
            continue
        index = entry.get("trial")
        if isinstance(index, int) and index >= 0 and "record" in entry:
            # A trial line without its record (torn mid-line, or hand-edited)
            # is skipped like an unparseable line: resume recomputes the
            # trial instead of crashing on the incomplete entry.
            records[index] = entry["record"]
    return spec_dict, records
