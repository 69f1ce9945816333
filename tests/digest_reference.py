"""One-blob reference for the dataset and delta-chain digests.

``dataset_digest`` streams each result's canonical row into sha256, and
``LongitudinalDataset`` keeps those rows so an epoch serializes only
what it probed.  These helpers are the direct formulation both
replaced: build the list of every row's dict, ``json.dumps`` it as one
blob, hash the blob.  The tests use them as the oracle the streamed
digests must match byte for byte.
"""

from __future__ import annotations

import hashlib
import json
from typing import Mapping

from repro.core.dataset import ProbeResult
from repro.core.journal import result_to_dict
from repro.dns.name import DnsName


def one_blob_digest(results: Mapping[DnsName, ProbeResult]) -> str:
    """sha256 of one ``json.dumps`` over every result, sorted by domain."""
    blob = json.dumps(
        [result_to_dict(r) for _, r in sorted(results.items())],
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()


def base_chain_digest(base_digest: str) -> str:
    """Epoch 0's chain digest."""
    return hashlib.sha256(f"epoch 0:{base_digest}".encode()).hexdigest()


def next_chain_digest(
    previous: str,
    epoch: int,
    epoch_digest: str,
    changed: Mapping[DnsName, ProbeResult],
) -> str:
    """Epoch ``epoch``'s chain digest: the previous link, the epoch's
    dataset digest, and the one-blob digest of its changed rows."""
    return hashlib.sha256(
        f"{previous}:epoch {epoch}:{epoch_digest}:"
        f"{one_blob_digest(changed)}".encode()
    ).hexdigest()
