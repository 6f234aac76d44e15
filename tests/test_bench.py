"""Benchmark harness and CLI tests."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import CHUNK, EDITOR_A, make_add, make_edit, raw_block
from ethercouch.bench import (
    CSV_HEADER,
    make_ticket,
    plain_store,
    results_to_csv,
    run_matrix,
    run_once,
    verify_dir,
)
from ethercouch.cli import main
from ethercouch.codec import lp, u64
from ethercouch.crypto import ZERO_DIGEST, hash_bytes, payload_root
from ethercouch.docstore import StoreState
from ethercouch.ledger import (
    Block,
    ChainState,
    DbFunction,
    Task,
    lineage_of,
    meets_target,
    serialize_tx,
)

# serialized record size of one hash-anchored mutation: seven length-prefixed
# fields (task 1B, three digests 32B, sequence 8B, lineage 32B, absent payload 1B)
RECORD_SIZE = 7 * 4 + 1 + 32 + 32 + 32 + 8 + 32 + 1


def test_record_size_constant_matches_serializer():
    from conftest import make_add

    assert len(serialize_tx(make_add(b"x" * 100))) == RECORD_SIZE


def test_plain_mode_stores_nothing_on_chain():
    (result,) = run_matrix(["plain"], [10], doc_size=512, repetitions=1)
    assert result.chain_bytes == 0
    assert result.store_bytes == 10 * 512


def test_plain_mode_writes_directly():
    payloads = {i: make_ticket(0, i, 100) for i in range(3)}
    _wall, ticks, chain_bytes, store_bytes = run_once("plain", 0, payloads)
    assert (ticks, chain_bytes, store_bytes) == (0, 0, 300)
    store = plain_store(payloads)
    lineage = hash_bytes(b"plain-doc:ticket-1")
    assert store.get_active(lineage) == payloads[1]
    assert [(r.seq, r.data_hash, r.origin) for r in store.history(lineage)] == [(1, ZERO_DIGEST, (0, 0))]
    assert store.applied_upto is None


def test_ethercouch_chain_bytes_are_count_times_record_size():
    results = run_matrix(["ethercouch"], [10, 50], doc_size=1024, repetitions=1)
    assert results[0].chain_bytes == 10 * RECORD_SIZE
    assert results[1].chain_bytes == 50 * RECORD_SIZE


def test_ethercouch_chain_bytes_independent_of_doc_size():
    (small,) = run_matrix(["ethercouch"], [25], doc_size=1024, repetitions=1)
    (large,) = run_matrix(["ethercouch"], [25], doc_size=65536, repetitions=1)
    assert small.chain_bytes == large.chain_bytes == 25 * RECORD_SIZE


def test_chainonly_chain_bytes_grow_by_exact_payload_delta():
    n = 25
    (small,) = run_matrix(["chainonly"], [n], doc_size=1024, repetitions=1)
    (large,) = run_matrix(["chainonly"], [n], doc_size=4096, repetitions=1)
    assert small.chain_bytes == n * (RECORD_SIZE + 1024)
    assert large.chain_bytes == n * (RECORD_SIZE + 4096)
    assert large.chain_bytes - small.chain_bytes == n * (4096 - 1024)


def test_ticks_and_bytes_stable_across_repetitions():
    (result,) = run_matrix(["ethercouch"], [30], doc_size=256, repetitions=3, seed=5)
    assert len(set(result.ticks)) == 1
    again = run_matrix(["ethercouch"], [30], doc_size=256, repetitions=3, seed=5)
    assert again[0].ticks == result.ticks
    assert again[0].chain_bytes == result.chain_bytes
    assert again[0].store_bytes == result.store_bytes


def test_tickets_are_distinct_and_sized():
    seen = {make_ticket(1, i, 300) for i in range(50)}
    assert len(seen) == 50
    assert all(len(t) == 300 for t in seen)


def test_csv_shape():
    results = run_matrix(["ethercouch"], [10], doc_size=128, repetitions=5)
    text = results_to_csv(results)
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[0] == "mode,count,doc_size,rep,wall_ms,ticks,chain_bytes,store_bytes"
    assert len(lines) == 1 + 5 + 1  # header + reps + mean
    assert lines[-1].split(",")[3] == "mean"


def test_bench_spec_validation():
    # run_matrix refuses bad arguments before it runs anything
    for modes, counts, kw, error in [
        (["nonsense"], [10], {}, "mode must be one of"),
        (["plain", "nonsense"], [10], {}, "mode must be one of"),
        (["plain"], [], {}, "counts must be non-empty"),
        (["plain"], [10, 0], {}, "counts must be positive"),
        (["plain"], [10], {"repetitions": 0}, "repetitions must be >= 1"),
        (["plain"], [10], {"doc_size": 0}, "doc_size must be positive"),
    ]:
        with pytest.raises(ValueError, match=error):
            run_matrix(modes, counts, **kw)


# -- CLI -----------------------------------------------------------------------


SCENARIO_JSON = """
{
  "seed": 13,
  "peers": [{"name": "p0"}, {"name": "p1"}],
  "latency": [1, 3],
  "mean_block_interval": 25,
  "script": [
    {"at": 5, "action": "publish", "peer": "p0", "doc": "a", "topic": "news", "size": 300},
    {"at": 50, "action": "edit", "peer": "p1", "doc": "a", "size": 200}
  ]
}
"""


@pytest.fixture()
def run_dir(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(SCENARIO_JSON)
    out = tmp_path / "out"
    rc = main(["run", str(scenario), "--out-dir", str(out), "--until", "20000"])
    assert rc == 0
    return out


def test_cli_bench_writes_csv(tmp_path):
    out = tmp_path / "r.csv"
    rc = main(["bench", "--mode", "ethercouch", "--counts", "10,20", "--reps", "2",
               "--doc-size", "256", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == CSV_HEADER
    mean_rows = [l for l in lines if ",mean," in l]
    assert len(mean_rows) == 2


def test_cli_run_writes_trace_and_state(run_dir):
    assert (run_dir / "trace.log").exists()
    trace = (run_dir / "trace.log").read_text()
    assert trace.rstrip().split("\n")[-1].startswith("digest ")
    for name in ("p0", "p1"):
        assert (run_dir / f"{name}.chain").exists()
        assert (run_dir / f"{name}.store").exists()


def test_cli_dumps(run_dir, capsys):
    assert main(["dump-chain", str(run_dir / "p0.chain")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("height=0 ")
    assert main(["dump-registry", str(run_dir / "p0.chain")]) == 0
    out = capsys.readouterr().out
    assert "add lineage=" in out
    assert main(["dump-store", str(run_dir / "p1.store")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("store applied_upto=")


def test_cli_verify_clean(run_dir, capsys):
    assert main(["verify", str(run_dir)]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_cli_verify_flags_tampered_store(run_dir, capsys):
    store = StoreState.load(run_dir / "p1.store")
    doc = next(iter(store.docs.values()))
    target = next(r for r in doc.revisions if r.payload is not None)
    flipped = bytearray(target.payload)
    flipped[0] ^= 1
    target.payload = bytes(flipped)
    store.save(run_dir / "p1.store")
    assert main(["verify", str(run_dir)]) == 1
    out = capsys.readouterr().out
    assert doc.lineage.hex() in out


def test_cli_verify_rejects_tampered_chain_file(run_dir):
    blob = bytearray((run_dir / "p0.chain").read_bytes())
    # flip one byte deep in the block region
    blob[len(blob) - 40] ^= 0x01
    (run_dir / "p0.chain").write_bytes(bytes(blob))
    assert main(["verify", str(run_dir)]) == 1


def test_cli_verify_flags_missing_revision(run_dir):
    store = StoreState.load(run_dir / "p0.store")
    lineage, doc = next(iter(store.docs.items()))
    doc.revisions.pop()
    store.save(run_dir / "p0.store")
    violations, checked = verify_dir(run_dir)
    assert checked == 2
    assert any("missing revision" in v and lineage.hex() in v for v in violations)


def test_cli_verify_flags_a_revision_the_chain_does_not_hold(run_dir, capsys):
    # a store revision that no chain entry at or below the store's mark
    # records is reported, and nothing else is
    store = StoreState.load(run_dir / "p0.store")
    mark = store.applied_upto
    stray = make_add(b"never on chain")
    store.apply_add(stray, b"never on chain", (1, 99))
    assert store.applied_upto == mark
    store.save(run_dir / "p0.store")
    violations, checked = verify_dir(run_dir)
    assert checked == 2
    assert violations == [f"p0: unexpected revision lineage={stray.doc_id.hex()} seq=1"]
    assert main(["verify", str(run_dir)]) == 1
    assert "unexpected revision" in capsys.readouterr().out


def _missing_target(state: ChainState, parent, height, txs) -> Block:
    """A block whose hash misses ``state``'s difficulty target."""
    nonce = 0
    while True:
        block = Block(parent, height, nonce, EDITOR_A, tuple(txs))
        if not meets_target(block.block_hash, state.difficulty_bits):
            return block
        nonce += 1


def _refused_block(case: str, state: ChainState) -> Block:
    """One block on ``state``'s genesis that ``validate_block`` refuses."""
    add = make_add(b"a new document")
    if case == "sequence-invalid":
        return raw_block(state, state.tip, 1, [add, make_edit(lineage_of(add), 5, b"skips ahead")])
    if case == "inline-root-mismatch":
        tx = DbFunction(Task.ADD, payload_root(b"other bytes", CHUNK), EDITOR_A, add.topic_id, 1, ZERO_DIGEST, b"inline bytes")
        return raw_block(state, state.tip, 1, [tx])
    if case == "misses-target":
        return _missing_target(state, state.tip, 1, [add])
    assert case == "orphan"
    return raw_block(state, hash_bytes(b"no such parent"), 1, [add])


@pytest.mark.parametrize(
    "case, reason",
    [
        pytest.param("sequence-invalid", "tx-invalid:stale-sequence", id="sequence-invalid"),
        pytest.param("inline-root-mismatch", "tx-invalid:inline-hash-mismatch", id="inline-root-mismatch"),
        pytest.param("misses-target", "pow-target", id="misses-target"),
        pytest.param("orphan", "unknown-parent", id="orphan"),
    ],
)
def test_verify_refuses_a_chain_file_that_load_refuses(tmp_path, case, reason):
    import os

    # verify checks a chain by loading it: every block must pass
    # validate_block, so a chain file with one refused block exits 1 with
    # an error that names why
    state = ChainState(difficulty_bits=8 if case == "misses-target" else 0, chunk_size=CHUNK)
    blob = lp(u64(state.difficulty_bits)) + lp(u64(CHUNK)) + lp(state.genesis.preimage())
    block = _refused_block(case, state)
    assert state.validate_block(block) == (False, reason)
    blob += lp(block.preimage())
    (tmp_path / "p0.chain").write_bytes(ChainState.CHAIN_MAGIC + blob)
    with pytest.raises(ValueError, match=reason):
        ChainState.load(tmp_path / "p0.chain")
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "ethercouch", "verify", str(tmp_path)],
        capture_output=True,
        text=True,
        env={"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(root / "src")},
        cwd=str(root),
    )
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error: ")
    assert reason in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["repeated-block", "repeated-genesis", "side-block-after-tip"])
def test_load_refuses_a_chain_file_whose_block_does_not_extend_the_one_before(tmp_path, capsys, case):
    # save writes the canonical chain, each block right after its parent; a
    # block that passes validate_block but sits anywhere else is refused
    state = ChainState(chunk_size=CHUNK)
    for tag in (b"first", b"second"):
        state.submit_tx(make_add(tag))
        state.adopt_block(state.mine_block(EDITOR_A))
    first = state.blocks[state.tip_block.parent]
    extra = {
        "repeated-block": state.tip_block,
        "repeated-genesis": state.genesis,
        "side-block-after-tip": raw_block(state, first.block_hash, 2, [make_add(b"side")]),
    }[case]
    assert state.validate_block(extra)[0]
    state.save(tmp_path / "p0.chain")
    with open(tmp_path / "p0.chain", "ab") as f:
        f.write(lp(extra.preimage()))
    with pytest.raises(ValueError, match="does not extend the block before it"):
        ChainState.load(tmp_path / "p0.chain")
    for argv in (["dump-chain", str(tmp_path / "p0.chain")], ["verify", str(tmp_path)]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert captured.out == ""


@pytest.mark.parametrize("case", ["no-chain-file", "missing-directory", "store-without-chain"])
def test_verify_refuses_a_directory_it_cannot_check(run_dir, capsys, case):
    # a mistyped path or a store with nothing to check it against is an
    # error, not "0 violations"
    target = run_dir
    if case == "no-chain-file":
        for chain_file in run_dir.glob("*.chain"):
            chain_file.unlink()
    elif case == "missing-directory":
        target = run_dir / "no-such-dir"
    else:
        (run_dir / "p1.chain").unlink()
    assert main(["verify", str(target)]) == 1
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
    assert captured.out == ""
    with pytest.raises(ValueError):
        verify_dir(target)


def test_cli_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["bench", "--bogus-flag"])
    assert e.value.code == 2


def test_cli_missing_file_errors(tmp_path):
    assert main(["dump-chain", str(tmp_path / "nope.chain")]) == 1


@pytest.mark.parametrize(
    "text, field",
    [
        pytest.param('{"peers": [{"name": "p0"}]}', "'seed'", id="no-seed"),
        pytest.param('{"seed": 1, "peers": [{"topics": []}]}', "'name'", id="peer-without-name"),
        pytest.param('{"seed": 1, "peers": [{"name": "p0"}], "script": [{"action": "heal"}]}', "'at'", id="entry-without-at"),
        pytest.param('[{"seed": 1}]', "scenario", id="top-level-array"),
        pytest.param('{"seed": 1, "peers": [{"name": "p0", "mode": "plain"}]}', "'mode'", id="plain-mode"),
    ],
)
def test_cli_run_refuses_a_malformed_scenario_without_a_traceback(tmp_path, text, field):
    import os

    root = Path(__file__).resolve().parent.parent
    scenario = tmp_path / "scenario.json"
    scenario.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "ethercouch", "run", str(scenario), "--out-dir", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env={"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(root / "src")},
        cwd=str(root),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and field in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists()


def test_console_entrypoint_runs():
    import os

    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "ethercouch", "bench", "--mode", "plain", "--counts", "5", "--reps", "1"],
        capture_output=True,
        text=True,
        # the child finds the package in the checkout however pytest was started
        env={"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": str(root / "src")},
        cwd=str(root),
    )
    assert proc.returncode == 0
    assert "plain" in proc.stdout
