"""The paper's claims, as an executable checklist.

Each test quotes the claim it verifies (section numbers from the CIDR 2009
paper).  Most of these behaviors are covered more deeply elsewhere in the
suite; this module is the one-stop mapping from paper text to running code.
"""

from __future__ import annotations

import pytest

from repro import KernelConfig, UnbundledKernel
from repro.common.config import DcConfig, TcConfig
from repro.schema import Schema
from repro.tc.log import CompensationRecord, OpRecord
from repro.workloads.generator import OltpMix, WorkloadRunner
from repro.workloads.photo_sharing import PhotoSharingApp
from repro.workloads.rdf_store import TripleStore
from tests.conftest import lossy, populate
from tests.test_cloud import movie_dc, requests_per_dc


def small_kernel(faults=None):
    return UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)), faults=faults)


class TestSection11RdfEngineAsDc:
    def test_triple_store_rents_atomicity_from_the_tc(self):
        """§1.1: "one might build an RDF engine as a DC with transactional
        functionality added as a separate layer" — three clustered
        orderings per triple, kept in step by the TC across a crash of
        both components with an assertion half done."""
        store = TripleStore(small_kernel())
        store.add_all(
            [
                ("ada", "knows", "grace"),
                ("grace", "knows", "alan"),
                ("ada", "wrote", "notes"),
            ]
        )
        torn = store.kernel.begin()  # only the SPO ordering gets written
        torn.insert("triples_spo", ("eve", "knows", "ada"), True)
        store.kernel.tc.force_log()
        store.kernel.crash_all()
        store.kernel.recover_all()
        assert store.count() == 3
        # every access path answers from its own ordering, all agreeing
        assert store.subjects("knows", "grace") == ["ada"]  # POS
        assert store.match(None, None, "alan") == [("grace", "knows", "alan")]  # OSP
        assert store.objects("ada", "knows") == ["grace"]  # SPO
        assert not store.has("eve", "knows", "ada")


class TestSection12Contribution:
    def test_tc_log_records_contain_no_page_identifiers(self):
        """§1.2: "All knowledge of pages is confined to a DC, which means
        that the TC must operate at the logical level on records." """
        kernel = small_kernel()
        kernel.create_table("t")
        populate(kernel, 60)  # enough to split pages
        for record in kernel.tc.log.all_records():
            if isinstance(record, (OpRecord, CompensationRecord)):
                assert not hasattr(record, "page_id")
                if record.op is not None:
                    assert not hasattr(record.op, "page_id")
                    fields = vars(record.op)
                    assert "page" not in str(sorted(fields)).lower()

    def test_dc_knows_nothing_about_transactions(self):
        """§1.2: "A DC knows nothing about transactions, their commit or
        abort" — operation messages carry no transaction id."""
        from repro.common.api import PerformOperation
        import dataclasses

        field_names = {f.name for f in dataclasses.fields(PerformOperation)}
        assert "txn_id" not in field_names
        assert "transaction" not in " ".join(field_names)

    def test_dc_cannot_tell_forward_from_inverse(self):
        """§4.2.1: the DC does not know "whether this operation is done as
        forward activity, or as an inverse during rollback" — inverses are
        ordinary operations."""
        kernel = small_kernel()
        kernel.create_table("t")
        with kernel.begin() as txn:
            txn.insert("t", 1, "v")
        ops_before = kernel.metrics.get("dc.operations")
        roller = kernel.begin()
        roller.update("t", 1, "dirty")
        roller.abort()  # sends an inverse UpdateOp
        # the DC served them all through the same entry point
        assert kernel.metrics.get("dc.operations") > ops_before


class TestSection2PhotoSharing:
    def test_home_grown_index_commits_with_the_btrees(self):
        """§2: application-specific index structures that "no relational
        cloud service would provide" — a hashed-heap phrase index beside
        B-tree tables in one DC, updated and cascaded in the same
        transactions as the rows it indexes."""
        app = PhotoSharingApp(small_kernel())
        app.register_user("ada", {})
        app.upload_photo("p1", "ada", {"title": "Bridge"}, ["sunset"])
        app.review_photo("p1", "ada", "golden hour light", 5)
        app.kernel.crash_all()
        app.kernel.recover_all()
        assert app.photos_matching_phrase("golden hour") == ["p1"]
        app.delete_photo("p1")  # reviews, tags and phrases go with it
        assert app.photos_matching_phrase("golden hour") == []
        assert app.photos_by_tag("sunset") == []
        assert app.reviews_of("p1") == []


class TestSection41Responsibilities:
    def test_411_2b_rollback_is_inverse_ops_in_reverse_order(self):
        """§4.1.1(2b): rollback = "logical operations, followed in reverse
        chronological order by logical operations that are inverses." """
        kernel = small_kernel()
        kernel.create_table("t")
        txn = kernel.begin()
        txn.insert("t", 1, "a")
        txn.insert("t", 2, "b")
        txn.abort()
        clrs = [
            r
            for r in kernel.tc.log.all_records()
            if isinstance(r, CompensationRecord) and r.txn_id == txn.txn_id
        ]
        # inverses appear newest-first: delete(2) then delete(1)
        assert [clr.op.key for clr in clrs] == [2, 1]

    def test_411_3_log_records_written_in_opsr_order(self):
        """§4.1.1(3): "logical log records can be written in OPSR order"
        — LSN order equals append order, always."""
        kernel = small_kernel()
        kernel.create_table("t")
        populate(kernel, 30)
        lsns = [record.lsn for record in kernel.tc.log.all_records()]
        assert lsns == sorted(lsns)

    def test_412_1_operations_are_atomic(self):
        """§4.1.2(1): multi-page operations appear indivisible — a cleanup
        spanning many leaves is all-or-nothing to later readers."""
        kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=512)))
        kernel.create_table("v", versioned=True)
        with kernel.begin() as txn:
            for key in range(60):
                txn.insert("v", key, f"v{key}")
        from repro.common.ops import ReadFlavor

        rows = kernel.tc.scan_other("v", flavor=ReadFlavor.READ_COMMITTED)
        assert len(rows) == 60  # the commit's promote hit every leaf


class TestSection42Contracts:
    def test_unique_request_ids_and_resend_reuse(self):
        """§4.2: "Resends of the request can be characterized by re-use of
        the operation identifier" — and ids never repeat otherwise."""
        kernel = small_kernel(lossy(9, loss=0.3))
        kernel.create_table("t")
        populate(kernel, 30)
        mutation_lsns = [
            r.lsn for r in kernel.tc.log.all_records() if isinstance(r, OpRecord)
        ]
        assert len(mutation_lsns) == len(set(mutation_lsns))
        assert kernel.metrics.get("tc.resends") > 0  # resends happened...
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 30  # ...exactly-once regardless

    def test_causality_nothing_stable_reflects_unlogged_ops(self):
        """§4.2 Causality: "the sender of a message remembers that it sent
        the message whenever the receiver remembers receiving it." """
        kernel = small_kernel()
        kernel.create_table("t")
        loser = kernel.begin()
        loser.insert("t", 1, "never forced")
        flushed = kernel.dc.buffer.flush_all()
        assert flushed == 0  # WAL across components held
        assert not any(
            kernel.dc.storage.read_page(pid)
            for pid in kernel.dc.storage.page_ids()
            if any(
                record.key == 1
                for record in kernel.dc.storage.read_page(pid).records
            )
        )

    def test_recovery_ordering_structures_before_redo(self):
        """§4.2 Recovery: "The DC must recover its storage structures
        first so that they are well-formed, before TC can perform redo." """
        kernel = small_kernel()
        kernel.create_table("t")
        populate(kernel, 100)  # splits happened
        kernel.crash_dc()
        kernel.dc.recover(notify_tcs=False)  # structures only
        kernel.dc.table("t").structure.validate()  # well-formed already
        kernel.tc._on_dc_restart(kernel.dc)  # only now: TC redo
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 100

    def test_contract_termination_releases_resend_obligation(self):
        """§4.2: checkpoint "releases the contract requiring TC to be
        willing to resend these operations." """
        kernel = small_kernel()
        kernel.create_table("t")
        populate(kernel, 20)
        assert kernel.checkpoint()
        kernel.crash_tc()
        stats = kernel.recover_tc()
        assert stats["redo_ops"] == 0


class TestSection52SystemTransactions:
    def test_system_transactions_unrelated_to_user_transactions(self):
        """§4.1.2(2): system transactions "are not related in any way to
        user-invoked transactions known to the TC" — an aborted user
        transaction does NOT undo the splits it triggered."""
        kernel = small_kernel()
        kernel.create_table("t")
        txn = kernel.begin()
        for key in range(60):
            txn.insert("t", key, f"v{key}")
        splits = kernel.metrics.get("btree.leaf_splits")
        assert splits > 0
        txn.abort()
        # records rolled back; the page structure stays split
        with kernel.begin() as check:
            assert check.scan("t") == []
        assert kernel.metrics.get("btree.leaf_splits") >= splits
        kernel.dc.table("t").structure.validate()

    def test_smo_replay_moves_ahead_of_tc_operations(self):
        """§5.2.2: "the page split is executed earlier in the update
        sequence relative to the TC operations that triggered the split"
        during recovery — and repeat-history still works."""
        kernel = small_kernel()
        kernel.create_table("t")
        populate(kernel, 100)
        dclog_records = kernel.dc.storage.dc_log_length()
        assert dclog_records > 0
        kernel.crash_dc()
        kernel.recover_dc()
        with kernel.begin() as txn:
            assert len(txn.scan("t")) == 100


class TestSection53PartialFailures:
    def test_independent_failure_no_amnesia(self):
        """§3.2(4): "a crash of one of them should not force amnesia for
        the other component." """
        kernel = small_kernel()
        kernel.create_table("t")
        populate(kernel, 50)
        kernel.checkpoint()
        cached = len(kernel.dc.buffer.cached_ids())
        kernel.crash_tc()
        kernel.recover_tc()
        # the DC kept (nearly) its whole cache across the TC's crash
        assert len(kernel.dc.buffer.cached_ids()) >= cached - 1
        # and conversely: the TC keeps its log across a DC crash
        log_records = kernel.tc.log.record_count()
        kernel.crash_dc()
        kernel.recover_dc()
        assert kernel.tc.log.record_count() >= log_records


class TestSection62SharingWithout2PC:
    def test_commit_is_unilateral_no_blocking_window(self):
        """§6.2.2: "Once the TC decides to commit, the transaction is
        committed everywhere ... Readers are never blocked." """
        from repro.cloud.movie_site import MovieSite

        site = MovieSite()
        site.add_movie("m", {"title": "M"})
        site.register_user("u", {})
        _r, sent = requests_per_dc(site, site.post_review, "u", "m", "spans two DCs")
        # no 2PC: two DCs, and no prepare, vote or decision beside the writes
        assert sent == {movie_dc(site, "m"): 3, site.user_dc.name: 2}
        # a reader during an open write: never blocked
        tc = site.owner_of("u")
        open_txn = tc.begin()
        site.reviews.insert(open_txn, ("m2", "u"), "pending")
        assert site.reviews_for_movie("m") != []  # returns immediately
        open_txn.abort()

    def test_a_two_dc_write_commits_on_one_log_force(self):
        """§6.2.2: "there is no classic (blocking) two phase commit
        protocol in this picture" — a review lands on two DCs and its TC
        commits it with one force of its own log; the textbook 2PC the
        design avoids forces five logs, sends eight messages and holds
        both participants in doubt until the decision."""
        from repro.cloud.movie_site import MovieSite
        from repro.cloud.two_pc import TwoPhaseCommitSystem

        site = MovieSite()
        site.add_movie("m", {"title": "M"})
        site.register_user("u", {})
        forces = site.metrics.get("tclog.forces")
        _, machines = site.machines_touched(site.post_review, "u", "m", "text")
        assert machines == 2
        assert site.metrics.get("tclog.forces") - forces == 1
        outcome = TwoPhaseCommitSystem(["dc-reviews", "dc-users"]).commit_transaction()
        assert outcome.committed
        assert (outcome.log_forces, outcome.messages) == (5, 8)
        assert outcome.blocked_participants == 2


class TestSection63RedundantIndexes:
    def test_secondary_index_rides_the_writing_transaction(self):
        """§6.3: MyReviews "is effectively ... an index in the physical
        schema since it contains redundant data from the Reviews table" —
        maintained inside the writing transaction, so an abort leaves
        neither the row nor its index entry."""
        kernel = small_kernel()
        reviews = Schema(kernel).table(
            "reviews", indexes={"by_user": lambda key, value: value["user"]}
        )
        with kernel.begin() as txn:
            reviews.insert(txn, ("vertigo", 1), {"user": "ada"})
        txn = kernel.begin()
        reviews.insert(txn, ("alien", 2), {"user": "ada"})
        txn.abort()
        with kernel.begin() as txn:
            assert reviews.lookup(txn, "by_user", "ada") == [("vertigo", 1)]
            reviews.verify_indexes(txn)


def loaded_kernel(tc: TcConfig, keys: int) -> UnbundledKernel:
    kernel = UnbundledKernel(KernelConfig(dc=DcConfig(page_size=2048), tc=tc))
    kernel.create_table("t")
    for key in range(keys):
        with kernel.begin() as txn:
            txn.insert("t", key, f"{'x' * 24}{key:06d}")
    return kernel


class TestFigure1CostOfUnbundling:
    """§7: "our unbundling approach inevitably has longer code paths" —
    paid in messages.  The paper's pattern (every write its own round trip,
    no undo-info cache) against :meth:`TcConfig.optimized`, on one OLTP mix
    of 4-op transactions."""

    def test_optimized_path_collapses_round_trips(self):
        mix = OltpMix(updates=0.4, inserts=0.1, ops_per_txn=4)
        counters = {}
        for name, tc in (
            ("baseline", TcConfig(undo_cache_size=0)),
            ("optimized", TcConfig.optimized()),
        ):
            kernel = loaded_kernel(tc, 300)
            runner = WorkloadRunner(kernel.begin, "t", keyspace=300, mix=mix, seed=7)
            for txns in (50, 400, 400, 400, 400):
                runner.run(txns)
            counters[name] = kernel.metrics.counters()
        base, opt = counters["baseline"], counters["optimized"]
        txns = 300 + 50 + 4 * 400  # load + warm-up + four rounds, both kernels
        base_msgs = base.get("channel.requests", 0) / txns
        opt_msgs = opt.get("channel.requests", 0) / txns
        assert opt_msgs < base_msgs
        assert opt_msgs <= 3.0
        # The baseline ships every write alone ...
        assert base.get("channel.batched_ops") == base.get("channel.batches")
        # ... the optimized path batches, and its cache answers every undo read.
        assert opt.get("tc.undo_info_reads", 0) == 0
        assert opt.get("channel.batches", 0) > 0

    def test_optimized_four_op_txn_sends_at_most_three_messages(self):
        kernel = loaded_kernel(TcConfig.optimized(), 100)
        before = kernel.metrics.get("channel.requests")
        with kernel.begin() as txn:
            txn.update("t", 1, "u")
            txn.update("t", 2, "u")
            txn.read("t", 3)
            txn.read("t", 4)
        assert kernel.metrics.get("channel.requests") - before <= 3
