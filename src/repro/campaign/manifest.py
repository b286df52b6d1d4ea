"""Campaign identity and the on-disk campaign manifest.

A *campaign* is a planned set of distinct cells.  Its id is a content
hash of that set — nothing else — so the same grid always plans to the
same campaign, whether the cache is cold or warm, whether one worker
or twenty will drain it, and whichever process computes it.  That is
what makes ``--resume <id>`` meaningful ("continue *this* grid") and
what lets every report carry a provenance stamp that survives re-runs
byte-identically.

The id hashes the same content keys that address the cells in the
result cache and the queue, so an existing campaign directory whose
manifest lists other keys than the ones just planned was written by an
incompatible version of the descriptor format (see
:class:`StaleCampaignError`).

On disk a campaign is a directory::

    <campaign_root>/<campaign_id>/
        manifest.json    # the planned cell set (write-once)
        queue.sqlite     # the durable work queue (see campaign.queue)
        events.jsonl     # append-only event journal (see repro.obs)
        metrics/         # per-worker Prometheus textfiles
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.core.config import canonical_hash

CAMPAIGN_FORMAT_VERSION = 1
"""Version of the campaign identity scheme and manifest layout."""

MANIFEST_NAME = "manifest.json"
QUEUE_NAME = "queue.sqlite"


class StaleCampaignError(RuntimeError):
    """An existing campaign directory lists other cells than the plan.

    Campaign ids survive changes to the cell descriptor format that
    change every content key (a ``SimConfig`` field leaving, say), so a
    directory planned by an older version can carry the id of today's
    plan while its queue rows describe cells this version cannot
    rebuild.  Reusing it would mix the two; the planner refuses.
    """


def campaign_id(descriptors) -> str:
    """Content-derived campaign id over a set of cell descriptors.

    Order-insensitive and duplicate-insensitive: the id names the
    *set* of measurements.  16 hex chars (64 bits) — short enough to
    type after ``--resume``, long enough that collisions within one
    campaign root are not a practical concern.
    """
    return campaign_id_for_keys(canonical_hash(d) for d in descriptors)


def campaign_id_for_keys(keys) -> str:
    """:func:`campaign_id` of the cells whose content keys are ``keys``
    (for a caller that hashed its descriptors already)."""
    return canonical_hash({"version": CAMPAIGN_FORMAT_VERSION,
                           "cells": sorted(set(keys))})[:16]


def campaign_dir(root: str | Path, cid: str) -> Path:
    """Directory of campaign ``cid`` under ``root``."""
    return Path(root) / cid


def queue_path(root: str | Path, cid: str) -> Path:
    """The campaign's durable queue database."""
    return campaign_dir(root, cid) / QUEUE_NAME


def write_manifest(root: str | Path, cid: str,
                   descriptors: dict[str, dict]) -> Path:
    """Persist the planned cell set (write-once, atomic).

    ``descriptors`` maps content key -> cell descriptor for every
    distinct cell of the campaign.  An existing manifest is left
    untouched (a resumed run must not churn the file's mtime or byte
    layout), but it must list exactly these keys: one written under
    another descriptor format raises :class:`StaleCampaignError`.
    """
    directory = campaign_dir(root, cid)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / MANIFEST_NAME
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            listed = {entry["key"] for entry in json.load(fh)["cells"]}
        if listed != set(descriptors):
            raise StaleCampaignError(
                f"campaign directory {directory} was planned by an "
                f"incompatible version of repro: its manifest lists "
                f"other cell keys than this plan's.  Use a fresh "
                f"--campaign-dir.")
        return path
    doc = {
        "campaign": cid,
        "version": CAMPAIGN_FORMAT_VERSION,
        "cells": [{"key": key, "cell": descriptors[key]}
                  for key in sorted(descriptors)],
    }
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_manifest(root: str | Path, cid: str) -> dict:
    """Load a campaign's manifest (raises ``FileNotFoundError``)."""
    path = campaign_dir(root, cid) / MANIFEST_NAME
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
