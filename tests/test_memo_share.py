"""Cross-worker syndrome-memo dedupe.

Covers the three layers separately and together: the
:class:`SyndromeMemo` sharding primitives (ownership, outbox, absorb,
shared-hit accounting), the worker message handler (config / memo
messages, the published-entries reply field), and the driver-side
replication loop on a synchronous stub pool — including the guarantee
that sharing never changes failure counts, only where decoding work
happens.
"""

import numpy as np
import pytest

from pool_helpers import StubPoolBackend
from repro.decoders import (
    DetectorGraph,
    MwpmDecoder,
    SyndromeMemo,
    memo_owner,
    native,
)
from repro.decoders.batch import decode_packed_dedup
from repro.engine import SweepSpec
from repro.engine.progress import ProgressReporter
from repro.engine.runner import (
    ShardExecutor,
    handle_worker_message,
    run_sweep,
)
from repro.sim import DemError, DetectorErrorModel, pack_bool_rows


# ----------------------------------------------------------------------
# SyndromeMemo sharding primitives
# ----------------------------------------------------------------------
class TestMemoSharding:
    def test_memo_owner_is_deterministic_and_in_range(self):
        keys = [bytes([i, i * 3 % 251]) for i in range(64)]
        for slots in (1, 2, 3, 7):
            owners = [memo_owner(key, slots) for key in keys]
            assert owners == [memo_owner(key, slots) for key in keys]
            assert all(0 <= owner < slots for owner in owners)
        # Non-degenerate spread: more than one slot actually owns keys.
        assert len({memo_owner(key, 4) for key in keys}) > 1

    def test_enable_sharing_validates_slot(self):
        memo = SyndromeMemo()
        with pytest.raises(ValueError):
            memo.enable_sharing(2, 2)
        with pytest.raises(ValueError):
            memo.enable_sharing(0, 0)
        memo.enable_sharing(1, 2)
        assert memo.sharing

    def test_outbox_only_queues_owned_entries(self):
        memo = SyndromeMemo()
        memo.enable_sharing(0, 2)
        keys = [bytes([i]) * 8 for i in range(32)]
        for i, key in enumerate(keys):
            memo.insert(key, i)
        drained = memo.drain_outbox()
        assert drained  # slot 0 owns some of 32 random-ish keys
        assert all(memo_owner(key, 2) == 0 for key, _ in drained)
        assert len(memo.table) == 32  # unowned entries still cached locally
        assert memo.drain_outbox() == []  # drain clears

    def test_absorb_counts_new_entries_and_marks_remote(self):
        memo = SyndromeMemo()
        memo.enable_sharing(0, 2)
        memo.insert(b"local-key", 5)
        assert memo.absorb([(b"peer-key", 7), (b"local-key", 5)]) == 1
        assert memo.table[b"peer-key"] == 7
        assert b"peer-key" in memo.remote_keys
        assert b"local-key" not in memo.remote_keys
        # Absorbed entries never re-enter the outbox.
        assert all(key != b"peer-key" for key, _ in memo.drain_outbox())

    def test_disable_sharing_clears_outbox(self):
        memo = SyndromeMemo()
        memo.enable_sharing(0, 1)  # slot 0 of 1 owns everything
        memo.insert(b"k", 1)
        memo.disable_sharing()
        assert not memo.sharing
        assert memo.drain_outbox() == []

    def test_shared_hits_counted_on_absorbed_entries_only(self):
        dem = DetectorErrorModel(3, 1)
        dem.errors.append(DemError((0,), (0,), 0.05))
        dem.errors.append(DemError((0, 1), (), 0.05))
        dem.errors.append(DemError((1, 2), (0,), 0.05))
        dem.errors.append(DemError((2,), (), 0.05))
        graph = DetectorGraph.from_dem(dem)
        decoder = MwpmDecoder(graph)
        rows = np.array([[True, False, False], [False, True, True]])
        words = pack_bool_rows(rows)
        expected = decode_packed_dedup(decoder.decode_unique_words, words)

        memo = SyndromeMemo()
        memo.absorb([(words[0].tobytes(), int(expected[0]))])
        got = decode_packed_dedup(
            decoder.decode_unique_words, words, memo=memo
        )
        assert np.array_equal(got, expected)
        hits, misses, entries, shared = memo.snapshot()
        assert (hits, misses, shared) == (1, 1, 1)
        # A second pass hits both rows but only one is a *shared* hit.
        decode_packed_dedup(decoder.decode_unique_words, words, memo=memo)
        hits, misses, entries, shared = memo.snapshot()
        assert (hits, misses, shared) == (3, 1, 2)


# ----------------------------------------------------------------------
# Worker message handler
# ----------------------------------------------------------------------
def _primed_executor(share=None):
    executor = ShardExecutor()
    if share is not None:
        executor.set_memo_share(share)
    return executor


class TestWorkerProtocol:
    def test_config_applies_memo_share_and_native(self):
        executor = ShardExecutor()
        try:
            handle_worker_message(
                executor,
                ("config", {"memo_share": {"slot": 1, "slots": 3},
                            "native_blossom": True}),
            )
            assert executor._memo_share == (1, 3)
            assert native.requested()
            handle_worker_message(executor, ("config", {}))
            assert executor._memo_share is None
            assert not native.requested()
        finally:
            native.configure(False)

    def test_memo_message_for_unknown_circuit_is_dropped(self):
        executor = _primed_executor({"slot": 0, "slots": 2})
        reply = handle_worker_message(
            executor, ("memo", "no-such-circuit", "mwpm", [(b"k", 1)], 0)
        )
        assert reply is None  # tolerated, no error reply

    def test_shard_reply_appends_published_entries_when_sharing(self):
        from repro.engine.cache import CompilationCache

        from repro.codes import RepetitionCode, UniformNoise, ideal_memory_circuit
        from repro.engine.cache import dem_to_jsonable
        from repro.sim import circuit_to_dem

        circ = ideal_memory_circuit(
            RepetitionCode(3), rounds=2, noise=UniformNoise(0.03)
        )
        dem_data = dem_to_jsonable(circuit_to_dem(circ))
        seed = np.random.SeedSequence(3)

        # slots=1: the single worker owns every key, so any new memo
        # entry must be published with the reply.
        executor = _primed_executor({"slot": 0, "slots": 1})
        handle_worker_message(
            executor, ("prime", "ckt", str(circ), dem_data, dem_data, None, 0)
        )
        shard = ("shard", 0, "ckt", "mwpm", "frame", 128, seed, 0, 0, None)
        reply = handle_worker_message(executor, shard)
        assert reply[0] == "ok" and len(reply) == 9
        published = reply[7]
        assert published and all(
            isinstance(key, bytes) and isinstance(mask, int)
            for key, mask in published
        )
        # Entries drain exactly once: an identical shard re-decodes
        # nothing new, so it publishes nothing.
        reply2 = handle_worker_message(executor, shard)
        assert reply2[7] is None

        # Sharing off: same shard, nothing published.
        executor2 = _primed_executor()
        handle_worker_message(
            executor2, ("prime", "ckt", str(circ), dem_data, dem_data, None, 0)
        )
        reply3 = handle_worker_message(executor2, shard)
        assert len(reply3) == 9 and reply3[7] is None
        assert reply3[2] == reply[2]  # sharing never changes failures


# ----------------------------------------------------------------------
# Driver-side replication on a synchronous stub pool
# ----------------------------------------------------------------------
def _spec(**overrides):
    base = dict(
        distances=(3,), shots=4096, rounds=2, master_seed=7,
        gate_improvements=(5.0,),
    )
    base.update(overrides)
    return SweepSpec(**base)


class TestDriverReplication:
    def test_config_carries_slot_assignment(self):
        backend = StubPoolBackend(workers=2)
        run_sweep(_spec(shots=512), backend=backend, shard_shots=64)
        configs = sorted(
            message[1]["memo_share"]["slot"]
            for _, message in backend.sent if message[0] == "config"
        )
        assert configs == [0, 1]
        slots = {
            message[1]["memo_share"]["slots"]
            for _, message in backend.sent if message[0] == "config"
        }
        assert slots == {2}

    def test_memo_entries_replicate_and_shared_hits_flow(self):
        backend = StubPoolBackend(workers=2)
        [result] = run_sweep(_spec(), backend=backend, shard_shots=64)
        memo_msgs = [m for _, m in backend.sent if m[0] == "memo"]
        assert memo_msgs, "no replication traffic despite shared syndromes"
        health = backend.pool_health()
        share = health["memo_share"]
        assert share["published_entries"] > 0
        assert share["pushed_entries"] > 0
        assert share["segments"] == 1
        extras = result.extras["memo"]
        assert extras.get("shared_hits", 0) > 0
        assert extras["hits"] >= extras["shared_hits"]

    def test_sharing_never_changes_failure_counts(self):
        shared = StubPoolBackend(workers=3)
        [with_share] = run_sweep(_spec(), backend=shared, shard_shots=64)

        unshared = StubPoolBackend(workers=3)
        unshared.memo_share = False
        [without] = run_sweep(_spec(), backend=unshared, shard_shots=64)
        assert not any(m[0] == "memo" for _, m in unshared.sent)
        assert all(
            m[1]["memo_share"] is None
            for _, m in unshared.sent if m[0] == "config"
        )
        assert with_share.failures == without.failures
        assert with_share.shots == without.shots

    def test_duplicate_publishes_counted_once(self):
        backend = StubPoolBackend(workers=1)
        meta = ("ckt", "mwpm")
        backend._merge_memo(meta, [(b"k1", 3), (b"k2", 5)], origin=0)
        backend._merge_memo(meta, [(b"k1", 3)], origin=0)
        assert backend._memo_published == 2
        assert backend._memo_duplicates == 1
        assert len(backend._memo_segments[meta]) == 2


# ----------------------------------------------------------------------
# Progress surfaces
# ----------------------------------------------------------------------
class TestProgressSurfaces:
    def _reporter(self, lines):
        reporter = ProgressReporter()
        reporter._emit = lines.append
        reporter.start(1)
        return reporter

    def test_finish_line_reports_cross_worker_hits(self):
        lines: list[str] = []
        reporter = self._reporter(lines)
        reporter.finish(
            memo_stats={
                "hits": 10, "misses": 4, "peak_entries": 4, "shared_hits": 3,
            }
        )
        assert any("(3 cross-worker)" in line for line in lines)

    def test_status_line_reports_cross_worker_rate(self):
        lines: list[str] = []
        reporter = self._reporter(lines)
        reporter.status({
            "shards_done": 2,
            "memo": {"hits": 8, "misses": 2, "hit_rate": 0.8,
                     "shared_hits": 5},
        })
        assert any("50.0% cross-worker" in line for line in lines)
