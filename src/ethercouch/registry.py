"""On-chain state machines derived from the canonical chain.

Two of them:

- the data registry: every accepted mutation record in chain order, with
  per-document latest revision numbers and tombstones, queryable by
  document;
- the peer directory: who is reachable where for off-chain transfers, and
  which peers have confirmed the current chain tip.

Both are plain native state machines. The sequence rules they enforce:
a document is born by an add at revision 1; every later mutation must
carry exactly the previous revision number plus one; nothing mutates a
deleted document.
"""

from __future__ import annotations

from typing import NamedTuple

from .crypto import Digest, ZERO_DIGEST, digest_hex
from .ledger import DbFunction, Task

# Enum's metaclass defines __getattr__, which sends every read of a member
# through its class (Task.ADD) down a slower lookup; the function bodies of
# this module read these names instead
_ADD, _DELETE = Task.ADD, Task.DELETE

OK = "ok"
UNKNOWN_LINEAGE = "unknown-lineage"
STALE_SEQUENCE = "stale-sequence"
DUPLICATE_ADD = "duplicate-add"
ALREADY_DELETED = "already-deleted"
MALFORMED_ADD = "malformed-add"


def _undo(entry: RegistryEntry) -> tuple[int, bool] | None:
    """The lineage state an accepted entry replaced, when undone from the
    end of the chain: none for an add (the lineage is forgotten), the
    previous revision for an edit or delete. The exact inverse of apply."""
    if entry.tx.task is _ADD:
        return None
    return (entry.tx.sequence_id - 1, False)


class MempoolView:
    """Scratch lineage state for validating queued or candidate transactions
    on top of a registry, which it reads and never writes.

    It holds only what differs from the registry's lineage map: the undo of
    each entry above its height (None for an undone add, which reads as
    absent), then whatever is applied to the view. So it copies nothing, and
    it stays right only while the registry changes no lineage it does not
    override. ``ChainState._spec`` keeps that invariant: a tip extension by
    queued transactions touches only lineages the view has applied, and
    every other canonical switch builds a new view.
    """

    def __init__(self, base: dict[Digest, tuple[int, bool]], diff: dict[Digest, tuple[int, bool] | None]):
        self._base = base
        self._diff = diff

    def validate(self, tx: DbFunction) -> str:
        """``OK``, or the sequence rule ``tx`` breaks on top of this view."""
        if tx.task is _ADD:
            if tx.lineage != ZERO_DIGEST:
                return MALFORMED_ADD
            if tx.sequence_id != 1:
                return STALE_SEQUENCE
            if self.latest(tx.digest) is not None:
                return DUPLICATE_ADD
            return OK
        entry = self.latest(tx.lineage)
        if entry is None:
            return UNKNOWN_LINEAGE
        latest, deleted = entry
        if deleted:
            return ALREADY_DELETED
        if tx.sequence_id != latest + 1:
            return STALE_SEQUENCE
        return OK

    def latest(self, lineage: Digest) -> tuple[int, bool] | None:
        """(latest sequence, deleted flag) or None for unknown documents."""
        diff = self._diff
        if lineage in diff:
            return diff[lineage]
        return self._base.get(lineage)

    def apply(self, tx: DbFunction) -> None:
        self._diff[tx.doc_id] = (tx.sequence_id, tx.task is _DELETE)


class RegistryEntry(NamedTuple):
    """One canonical mutation and its chain coordinates. Its document is
    ``tx.doc_id``."""

    tx: DbFunction
    height: int
    index: int


class DataRegistry:
    """All accepted mutation records in canonical-chain order.

    The sequence rules number a document's entries 1..n in chain order, so
    its entry of revision ``seq`` is the ``seq``-th (``entry``).
    """

    def __init__(self):
        self.entries: list[RegistryEntry] = []
        self._by_lineage: dict[Digest, list[RegistryEntry]] = {}
        self._state: dict[Digest, tuple[int, bool]] = {}

    def apply(self, tx: DbFunction, height: int, index: int) -> RegistryEntry:
        entry = RegistryEntry(tx, height, index)
        self.entries.append(entry)
        self._by_lineage.setdefault(tx.doc_id, []).append(entry)
        self._state[tx.doc_id] = (tx.sequence_id, tx.task is _DELETE)
        return entry

    def latest(self, lineage: Digest) -> tuple[int, bool] | None:
        return self._state.get(lineage)

    def lineages(self) -> list[Digest]:
        return list(self._state)

    def fork_view(self, height: int | None = None) -> MempoolView:
        """Scratch view of the state after block ``height`` (default: now).

        Costs the entries above ``height``, not the lineage count: the view
        reads this registry's lineage map and records, newest entry first,
        the undo of each entry above ``height``, so the oldest undo of a
        lineage is the one it keeps. The view is valid until this registry
        changes a lineage the view does not override.
        """
        diff: dict[Digest, tuple[int, bool] | None] = {}
        if height is not None:
            for e in reversed(self.entries):
                if e.height <= height:
                    break
                diff[e.tx.doc_id] = _undo(e)
        return MempoolView(self._state, diff)

    def rollback_to_height(self, height: int) -> None:
        """Drop entries above a block height, undoing their state effects."""
        while self.entries and self.entries[-1].height > height:
            entry = self.entries.pop()
            lineage = entry.tx.doc_id
            before = _undo(entry)
            if before is None:
                del self._state[lineage]
            else:
                self._state[lineage] = before
            same_lineage = self._by_lineage[lineage]
            same_lineage.pop()
            if not same_lineage:
                del self._by_lineage[lineage]

    def query_by_lineage(self, lineage: Digest) -> list[RegistryEntry]:
        return list(self._by_lineage.get(lineage, ()))

    def entry(self, lineage: Digest, seq: int) -> RegistryEntry | None:
        """The entry of revision ``seq`` of ``lineage``, or None."""
        same_lineage = self._by_lineage.get(lineage, ())
        return same_lineage[seq - 1] if 0 < seq <= len(same_lineage) else None

    def dump_text(self) -> str:
        """Line-oriented rendering (dump-registry format): one accepted entry
        per line with its chain coordinates, in chain order."""
        lines = [
            f"{e.height}:{e.index} {e.tx.task.label} lineage={digest_hex(e.tx.doc_id)} "
            f"seq={e.tx.sequence_id} topic={digest_hex(e.tx.topic_id)} "
            f"editor={digest_hex(e.tx.editor_hash)} data={digest_hex(e.tx.data_hash)}"
            for e in self.entries
        ]
        return "\n".join(lines) + "\n"


class UnknownPeer(KeyError):
    pass


class LocationRegistry:
    """Peer directory: each registered editor hash maps to its location
    token (at most 32 bytes), and some are marked up to date.

    A peer is "up to date" only for the most recently reported tip; marking
    any other tip evicts everyone recorded for the previous one. The first
    peer in insertion order is the preferred off-chain source.
    """

    def __init__(self):
        self.all_peers: dict[Digest, str] = {}
        self._up_tip: Digest | None = None
        self._up_peers: dict[Digest, None] = {}

    def register_peer(self, editor_hash: Digest, location: str) -> None:
        if len(location.encode()) > 32:
            raise ValueError("location token longer than 32 bytes")
        self.all_peers[editor_hash] = location

    def mark_up_to_date(self, editor_hash: Digest, tip: Digest) -> None:
        if editor_hash not in self.all_peers:
            raise UnknownPeer(digest_hex(editor_hash))
        if tip != self._up_tip:
            self._up_tip = tip
            self._up_peers = {}
        self._up_peers.setdefault(editor_hash, None)

    def up_to_date_peers(self) -> list[str]:
        """The locations of the up-to-date peers, in insertion order."""
        return [self.all_peers[e] for e in self._up_peers]
