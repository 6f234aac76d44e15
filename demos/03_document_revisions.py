"""Revisioned documents: edits append, deletes erase bytes but keep history.

The store mirrors the chain one-to-one: every mutation becomes a revision,
the highest revision is active, and a delete turns the document into a
tombstone whose payload bytes are gone while hashes and sequence numbers
remain auditable forever.

Usage:
    python demos/03_document_revisions.py
"""

from ethercouch.crypto import digest_hex, hash_bytes, payload_root
from ethercouch.docstore import StoreState
from ethercouch.ledger import DbFunction, Task, lineage_of


def mutation(task, seq, payload, lineage=b"\x00" * 32):
    return DbFunction(
        task=task,
        data_hash=payload_root(payload, 4096) if payload is not None else b"\x00" * 32,
        editor_hash=hash_bytes(b"peer:editor"),
        topic_id=hash_bytes(b"topic:tickets"),
        sequence_id=seq,
        lineage=lineage,
    )


def show(store, lineage):
    doc = store.docs[lineage]
    active = "tombstone" if doc.deleted else f"rev {doc.active_seq}"
    print(f"    active: {active}, history:")
    for rev in store.history(lineage):
        body = rev.payload.decode() if rev.payload is not None else "(erased)"
        print(f"      seq {rev.seq}  data={digest_hex(rev.data_hash)[:16]}...  {body!r}")


def main():
    print("=" * 64)
    print("Document store: revisions, active pointer, tombstones")
    print("=" * 64)

    store = StoreState(chunk_size=4096)

    add = mutation(Task.ADD, 1, b"pump 4 is leaking")
    lineage = lineage_of(add)
    store.apply_add(add, b"pump 4 is leaking", origin=(1, 0))
    print("\n[1] after the add:")
    show(store, lineage)

    edit = mutation(Task.EDIT, 2, b"pump 4 fixed, bearing replaced", lineage)
    store.apply_edit(edit, b"pump 4 fixed, bearing replaced", origin=(2, 0))
    print("\n[2] after an edit (old revision keeps its payload):")
    show(store, lineage)

    print("\n[3] out-of-order arrivals buffer until the gap closes:")
    e4 = mutation(Task.EDIT, 4, b"ticket closed", lineage)
    result = store.apply_edit(e4, b"ticket closed", origin=(4, 0))
    print(f"    applying seq 4 first -> buffered={result.buffered}")
    e3 = mutation(Task.EDIT, 3, b"verified by night shift", lineage)
    result = store.apply_edit(e3, b"verified by night shift", origin=(3, 0))
    print(f"    applying seq 3 -> landed {[s for (_, s) in result.applied]}")
    show(store, lineage)

    delete = mutation(Task.DELETE, 5, None, lineage)
    store.apply_delete(delete, origin=(5, 0))
    print("\n[4] after the delete request (references stay, bytes are gone):")
    show(store, lineage)
    print(f"    payload bytes left in the store: {store.payload_bytes()}")
    print(f"    get_active -> {store.get_active(lineage)!r}  (tombstone, not missing)")


if __name__ == "__main__":
    main()
