"""Deterministic checkpoint/resume for probe campaigns.

A production-scale campaign (the paper's 147k domains; the ROADMAP's
north star) cannot afford to restart from scratch when the measurement
process dies mid-run.  This module makes a campaign *resumable* without
sacrificing the engine's core promise — the resumed run produces a
dataset **byte-identical** to an uninterrupted one.

Design: replay, not restoration
-------------------------------
The campaign is a deterministic function of (world, config, RNG
stream).  Rather than snapshotting the full engine state (schedulers,
generator frames, half-walked delegations — unserializable), the
journal records just enough to *re-execute* the killed prefix exactly:

* one **send entry** per network exchange, recording its outcome kind
  (``a`` answered / ``r`` chaos-refused / ``t`` silence) and delay —
  these substitute for the loss/latency RNG draws during replay, so
  replay consumes no randomness;
* periodic **checkpoints** carrying the cumulative send count plus the
  network and chaos RNG states (``random.Random.getstate()``), so the
  first post-replay live send draws from exactly the stream position
  the killed run had reached;
* **result entries** for completed :class:`ProbeResult`s — not needed
  for correctness (replay re-derives them) but they make partial
  datasets recoverable without a world and give the resilience report
  its replay statistics.

On resume the campaign runs against a freshly regenerated *identical*
world (same seed, scale, and chaos profile — enforced by a campaign
digest in the journal header).  Replay is fast (no simulated waiting is
re-experienced as wall time, and host lookups are pure) and the
crossover from replay to live recording is invisible to the engine.

File format
-----------
Append-only JSONL; every line is flushed when written, so a ``kill -9``
loses at most one torn trailing line (ignored on parse).  Lines are
objects tagged by ``"k"``:

``{"k":"h","version":1,"campaign":<sha256>}``
    Header; the digest covers targets, probe config, and chaos profile.
``{"k":"s","o":"a"|"r"|"t","d":<delay seconds>}``
    One network send, in issue order.
``{"k":"d", ...serialized ProbeResult...}``
    One completed domain.
``{"k":"c","sends":<n>,"clock":<now>,"rng":[...],"chaos":[...]|null}``
    Checkpoint after the ``n``-th send.  Resume truncates the file at
    the last checkpoint and replays exactly ``n`` sends.

Sharded campaigns
-----------------
A sharded campaign (``repro campaign --shards K``) cannot share one
journal file: K workers appending concurrently would interleave send
entries non-deterministically.  Instead the journal path holds a
one-line JSON **manifest**

``{"k":"m","version":1,"shards":K,"campaign":<sha256>,"files":[...]}``

and each worker keeps an ordinary single-process journal at
``<path>.shard<i>`` covering exactly its shard's targets.  Resume is
per shard: workers whose journal completed replay it fully; killed
workers resume from their own last checkpoint.  Opening a manifest as a
plain journal (or resuming with a different K) raises a clear error
instead of silently corrupting state.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring_ascii
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from ..dns.name import DnsName, parse_cached
from ..inet.address import IPv4Address, parse_address_cached
from ..net.network import Network
from .dataset import MeasurementDataset, ProbeResult, ServerProbe

__all__ = [
    "CampaignJournal",
    "JOURNAL_VERSION",
    "campaign_digest",
    "dataset_digest",
    "dataset_rows",
    "digest_rows",
    "result_from_dict",
    "result_from_row",
    "result_row",
    "result_to_dict",
    "read_shard_manifest",
    "row_is_for",
    "shard_journal_path",
    "write_shard_manifest",
]

JOURNAL_VERSION = 1

# Checkpoint cadence, in sends.  Checkpoints also follow every completed
# result, so this bounds replay-tail length between domain completions.
CHECKPOINT_EVERY = 256


# ----------------------------------------------------------------------
# Serialization helpers
# ----------------------------------------------------------------------
def _jsonable(value: Any) -> Any:
    """``random.Random.getstate()`` tuples → JSON arrays (recursive)."""
    if isinstance(value, tuple):
        return [_jsonable(item) for item in value]
    return value


def _unjson(value: Any) -> Any:
    """JSON arrays → the tuples ``random.Random.setstate()`` expects."""
    if isinstance(value, list):
        return tuple(_unjson(item) for item in value)
    return value


def result_to_dict(result: ProbeResult) -> Dict[str, Any]:
    """Serialize one :class:`ProbeResult` exactly (order-preserving)."""
    return {
        "domain": str(result.domain),
        "iso2": result.iso2,
        "parent_status": result.parent_status,
        "parent_ns": [str(h) for h in result.parent_ns],
        "child_ns": [str(h) for h in result.child_ns],
        "queries_sent": result.queries_sent,
        "retried": result.retried,
        "servers": [
            {
                "hostname": str(server.hostname),
                "resolvable": server.resolvable,
                "addresses": [str(a) for a in server.addresses],
                "outcomes": {
                    str(a): o for a, o in sorted(server.outcomes.items())
                },
                "ns_by_address": {
                    str(a): [str(n) for n in ns]
                    for a, ns in sorted(server.ns_by_address.items())
                },
                "prior_outcomes": {
                    str(a): o for a, o in sorted(server.prior_outcomes.items())
                },
            }
            for server in result.servers.values()
        ],
    }


def _by_address(entries: Mapping[str, Any]) -> Dict[IPv4Address, Any]:
    """An address-keyed map, in address order as serialized by
    :func:`result_to_dict` (a canonical row re-sorts keys as text)."""
    if not entries:
        return {}
    items = [
        (parse_address_cached(text), value) for text, value in entries.items()
    ]
    if len(items) > 1:
        items.sort(key=lambda item: item[0].value)
    return dict(items)


def _names(texts: List[str]) -> Tuple[DnsName, ...]:
    return tuple(parse_cached(text) for text in texts)


def result_from_dict(data: Mapping[str, Any]) -> ProbeResult:
    """Inverse of :func:`result_to_dict`.

    Names and addresses go through memoized parsers
    (:func:`~repro.dns.name.parse_cached`,
    :func:`~repro.inet.address.parse_address_cached`): a row-backed
    dataset decodes thousands of results whose hostnames and addresses repeat
    heavily (co-hosted NS infrastructure), so each distinct spelling
    is parsed once.
    """
    servers: Dict[DnsName, ServerProbe] = {}
    for entry in data["servers"]:
        hostname = parse_cached(entry["hostname"])
        servers[hostname] = ServerProbe(
            hostname=hostname,
            resolvable=entry["resolvable"],
            addresses=tuple(
                parse_address_cached(a) for a in entry["addresses"]
            ),
            outcomes=_by_address(entry["outcomes"]),
            ns_by_address={
                address: _names(ns)
                for address, ns in _by_address(entry["ns_by_address"]).items()
            },
            prior_outcomes=_by_address(entry["prior_outcomes"]),
        )
    return ProbeResult(
        domain=parse_cached(data["domain"]),
        iso2=data["iso2"],
        parent_status=data["parent_status"],
        parent_ns=_names(data["parent_ns"]),
        child_ns=_names(data["child_ns"]),
        servers=servers,
        queries_sent=data["queries_sent"],
        retried=data["retried"],
    )


def result_row(result: ProbeResult) -> bytes:
    """One result's canonical row: the compact sorted-keys JSON of
    :func:`result_to_dict`.  Digests are computed over these rows, and
    sharded workers ship them to the parent."""
    return json.dumps(
        result_to_dict(result), sort_keys=True, separators=(",", ":")
    ).encode()


def result_from_row(row: bytes) -> ProbeResult:
    """Inverse of :func:`result_row`: ``result_row`` of the decoded
    result is ``row`` again, byte for byte."""
    return result_from_dict(json.loads(row))


def row_is_for(row: bytes, domain: DnsName) -> bool:
    """Is ``row`` the canonical row of ``domain``?  Read off the bytes:
    ``"domain"`` is a key only at a row's top level."""
    return b'"domain":' + encode_basestring_ascii(str(domain)).encode() in row


def dataset_rows(dataset: MeasurementDataset) -> Iterator[Tuple[DnsName, bytes]]:
    """Every ``(domain, canonical row)`` of ``dataset``, in admission
    (sorted-domain) order: a row-backed dataset's rows as stored,
    otherwise :func:`result_row` of each result, one at a time.  The
    one source of rows for digests and delta chains."""
    if dataset.rows is not None:
        yield from dataset.rows.items()
        return
    results = dataset.results
    for domain in sorted(results):
        yield domain, result_row(results[domain])


def dataset_row(dataset: MeasurementDataset, domain: DnsName) -> bytes:
    """One domain's canonical row, the way :func:`dataset_rows` gives
    it: stored if the dataset is row-backed, else serialized."""
    if dataset.rows is not None:
        return dataset.rows[domain]
    return result_row(dataset.results[domain])


def digest_rows(rows: Iterable[bytes]) -> str:
    """sha256 of the JSON array of ``rows``, fed one row at a time.

    The bytes hashed are exactly ``json.dumps`` of the list of row
    dicts (``[`` + rows joined by ``,`` + ``]``), without ever holding
    that list or the joined blob in memory.
    """
    digest = hashlib.sha256(b"[")
    separator = b""
    for row in rows:
        digest.update(separator)
        digest.update(row)
        separator = b","
    digest.update(b"]")
    return digest.hexdigest()


def dataset_digest(dataset: MeasurementDataset) -> str:
    """sha256 over the canonical serialization of every result.

    This is the byte-identity yardstick the resume contract (and the CI
    chaos-smoke job) is stated in.
    """
    return digest_rows(row for _, row in dataset_rows(dataset))


def campaign_digest(
    targets: Mapping[DnsName, str],
    knobs: Mapping[str, Any],
    chaos_name: Optional[str],
) -> str:
    """Identity of a campaign: targets + probe config + chaos profile.

    Stored in the journal header; resuming under a different identity
    would replay sends against a world that draws differently, so it is
    rejected up front.
    """
    blob = json.dumps(
        {
            "targets": sorted(
                (str(domain), iso2) for domain, iso2 in targets.items()
            ),
            "config": {key: knobs[key] for key in sorted(knobs)},
            "chaos": chaos_name,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# Shard manifests
# ----------------------------------------------------------------------
def shard_journal_path(path: str, shard_index: int) -> str:
    """The per-worker journal file for one shard of a manifest at ``path``."""
    return f"{path}.shard{shard_index}"


def write_shard_manifest(path: str, shards: int, campaign: str) -> List[str]:
    """Write (or validate an existing) manifest; return per-shard paths.

    Re-invoking with the same (shards, campaign) — the resume path — is
    a no-op validation; any mismatch raises before a worker touches its
    journal.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    files = [shard_journal_path(path, index) for index in range(shards)]
    manifest = {
        "k": "m",
        "version": JOURNAL_VERSION,
        "shards": shards,
        "campaign": campaign,
        "files": files,
    }
    try:
        existing = read_shard_manifest(path)
    except FileNotFoundError:
        existing = None
    if existing is not None:
        if existing["shards"] != shards:
            raise ValueError(
                f"{path}: manifest was recorded with --shards "
                f"{existing['shards']}, cannot resume with --shards "
                f"{shards} — shard membership (and each worker's journal) "
                f"is tied to the original count"
            )
        if existing["campaign"] != campaign:
            raise ValueError(
                f"{path}: manifest campaign mismatch — resume needs the "
                f"same world seed/scale, probe config, and chaos profile"
            )
        return list(existing["files"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, separators=(",", ":")) + "\n")
    return files


def read_shard_manifest(path: str) -> Dict[str, Any]:
    """Parse a shard manifest; raises ValueError on a plain journal."""
    with open(path, "rb") as fh:
        first = fh.readline()
    try:
        entry = json.loads(first)
    except ValueError:
        raise ValueError(f"{path}: not a shard manifest (unparseable)")
    if not isinstance(entry, dict) or entry.get("k") != "m":
        raise ValueError(
            f"{path}: not a shard manifest — this looks like a "
            f"single-process campaign journal (resume it without --shards)"
        )
    if entry.get("version") != JOURNAL_VERSION:
        raise ValueError(
            f"{path}: manifest version {entry.get('version')!r} "
            f"!= supported {JOURNAL_VERSION}"
        )
    return entry


# ----------------------------------------------------------------------
# The journal
# ----------------------------------------------------------------------
class CampaignJournal:
    """Append-only JSONL journal; also the network's replay tap.

    Use :meth:`create` for a fresh recording and :meth:`resume` to
    continue a killed campaign.  The prober calls :meth:`begin` /
    :meth:`record_result` / :meth:`finish`; the network calls
    :meth:`replay_send` / :meth:`record_send` per exchange.
    """

    def __init__(self, path: str, resuming: bool) -> None:
        self.path = path
        self.resuming = resuming
        self._fh: Optional[Any] = None
        self._live = False
        self._header: Optional[Dict[str, Any]] = None
        self._checkpoint: Optional[Dict[str, Any]] = None
        self._truncate_at = 0
        self._replay: List[Tuple[str, float]] = []
        self._cursor = 0
        self._sends = 0
        self._seen: set = set()
        self._result_dicts: Dict[str, Dict[str, Any]] = {}
        self.replayed_sends = 0
        self.recovered_results = 0
        if resuming:
            self._parse()

    @classmethod
    def create(cls, path: str) -> "CampaignJournal":
        """A fresh journal; ``begin`` truncates/creates the file."""
        return cls(path, resuming=False)

    @classmethod
    def resume(cls, path: str) -> "CampaignJournal":
        """Parse an existing journal and prepare to replay it."""
        return cls(path, resuming=True)

    # ------------------------------------------------------------------
    # Parsing (resume)
    # ------------------------------------------------------------------
    def _parse(self) -> None:
        with open(self.path, "rb") as fh:
            data = fh.read()
        header: Optional[Dict[str, Any]] = None
        checkpoint: Optional[Dict[str, Any]] = None
        checkpoint_end = 0
        checkpoint_sends_seen = 0
        checkpoint_seen: set = set()
        sends: List[Tuple[str, float]] = []
        results: Dict[str, Dict[str, Any]] = {}
        pos = 0
        while pos < len(data):
            newline = data.find(b"\n", pos)
            if newline == -1:
                break  # torn trailing line: the kill landed mid-write
            line = data[pos:newline]
            try:
                entry = json.loads(line)
            except ValueError:
                break  # torn line that happens to contain a newline
            if not isinstance(entry, dict) or "k" not in entry:
                break
            kind = entry["k"]
            if kind == "m":
                raise ValueError(
                    f"{self.path}: this is a sharded-campaign manifest "
                    f"(recorded with --shards {entry.get('shards')}), not a "
                    f"single-process journal — resume it with --shards "
                    f"{entry.get('shards')}"
                )
            if kind == "h":
                header = entry
                self._truncate_at = newline + 1
            elif kind == "s":
                sends.append((entry["o"], entry["d"]))
            elif kind == "d":
                results[entry["domain"]] = entry
            elif kind == "c":
                checkpoint = entry
                checkpoint_end = newline + 1
                checkpoint_sends_seen = len(sends)
                checkpoint_seen = set(results)
            pos = newline + 1
        if header is None:
            raise ValueError(f"{self.path}: not a campaign journal (no header)")
        if header.get("version") != JOURNAL_VERSION:
            raise ValueError(
                f"{self.path}: journal version {header.get('version')!r} "
                f"!= supported {JOURNAL_VERSION}"
            )
        self._header = header
        if checkpoint is not None:
            if checkpoint["sends"] != checkpoint_sends_seen:
                raise ValueError(
                    f"{self.path}: corrupt journal — checkpoint claims "
                    f"{checkpoint['sends']} sends, file holds "
                    f"{checkpoint_sends_seen}"
                )
            self._checkpoint = checkpoint
            self._truncate_at = checkpoint_end
            self._replay = sends[: checkpoint["sends"]]
            self._seen = checkpoint_seen
        # else: no checkpoint was reached before the kill — truncate to
        # just past the header and re-run the campaign from scratch
        # (the initial RNG state needs no restoring).
        self._sends = len(self._replay)
        self._result_dicts = {
            domain: results[domain]
            for domain in results
            if domain in self._seen
        }
        self.recovered_results = len(self._seen)

    # ------------------------------------------------------------------
    # Campaign lifecycle (called by the prober)
    # ------------------------------------------------------------------
    def begin(self, network: Network, digest: str) -> None:
        if self.resuming:
            assert self._header is not None
            recorded = self._header.get("campaign")
            if recorded != digest:
                raise ValueError(
                    f"journal campaign mismatch: {self.path} was recorded "
                    f"for campaign {recorded}, but this campaign is "
                    f"{digest} — resume needs the same world seed/scale, "
                    f"probe config, and chaos profile"
                )
            with open(self.path, "r+b") as fh:
                fh.truncate(self._truncate_at)
            self._fh = open(self.path, "a", encoding="utf-8")
            if self._cursor >= len(self._replay):
                self._takeover(network)
        else:
            self._fh = open(self.path, "w", encoding="utf-8")
            self._live = True
            self._append(
                {"k": "h", "version": JOURNAL_VERSION, "campaign": digest}
            )

    def record_result(self, network: Network, result: ProbeResult) -> None:
        """Append a completed domain (idempotent across resumes)."""
        domain = str(result.domain)
        if domain in self._seen:
            return
        self._seen.add(domain)
        entry = {"k": "d"}
        entry.update(result_to_dict(result))
        self._append(entry)
        if self._live:
            # Mid-replay appends must not checkpoint: a checkpoint's
            # send count has to match the send entries preceding it.
            self._write_checkpoint(network)

    def finish(self, network: Network) -> None:
        """Final checkpoint + close (clean campaign completion)."""
        if self._fh is None:
            return
        if self._live:
            self._write_checkpoint(network)
        self.close()

    def close(self) -> None:
        """Close without checkpointing (the abort path)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    # Network tap (called by Network.send)
    # ------------------------------------------------------------------
    def replay_send(self, network: Network) -> Optional[Tuple[str, float]]:
        if self._cursor >= len(self._replay):
            return None
        entry = self._replay[self._cursor]
        self._cursor += 1
        self.replayed_sends += 1
        if self._cursor >= len(self._replay):
            # Replay exhausted: restore the RNG streams to where the
            # killed run's checkpoint left them, then go live.
            self._takeover(network)
        return entry

    def record_send(self, network: Network, kind: str, delay: float) -> None:
        self._sends += 1
        self._append({"k": "s", "o": kind, "d": delay})
        if self._sends % CHECKPOINT_EVERY == 0:
            self._write_checkpoint(network)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _takeover(self, network: Network) -> None:
        if self._live:
            return
        self._live = True
        checkpoint = self._checkpoint
        if checkpoint is None:
            return
        network.restore_rng_state(_unjson(checkpoint["rng"]))
        chaos_state = checkpoint.get("chaos")
        if chaos_state is not None:
            if network.chaos is None:
                raise ValueError(
                    "journal checkpoint carries chaos RNG state but the "
                    "resumed network has no fault schedule installed"
                )
            network.chaos.restore_rng_state(_unjson(chaos_state))

    def _write_checkpoint(self, network: Network) -> None:
        chaos = network.chaos
        self._append(
            {
                "k": "c",
                "sends": self._sends,
                "clock": network.clock.now,
                "rng": _jsonable(network.rng_state()),
                "chaos": _jsonable(chaos.rng_state())
                if chaos is not None
                else None,
            }
        )

    def _append(self, entry: Dict[str, Any]) -> None:
        assert self._fh is not None, "journal used before begin()"
        self._fh.write(json.dumps(entry, separators=(",", ":")) + "\n")
        # Flush per line: a killed process must lose at most the line it
        # was writing, or resume could replay a prefix that diverges
        # from what actually happened.
        self._fh.flush()

    # ------------------------------------------------------------------
    # Recovered data access
    # ------------------------------------------------------------------
    def load_results(self) -> List[ProbeResult]:
        """The completed results recovered from the journal file."""
        return [result_from_dict(d) for d in self._result_dicts.values()]
