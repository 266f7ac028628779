"""Tests for :mod:`repro.blocks.delivery` (data delivery to PE groups)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blocks.delivery import (
    DELIVERY_METHODS,
    _flat_assign_deterministic_batched,
    deliver_to_groups,
    deliver_to_groups_batched,
)
from repro.machine.spec import laptop_like
from repro.sim.comm import Comm
from repro.sim.groups import GroupBatch
from repro.sim.machine import SimulatedMachine

COUNTER_FIELDS = (
    "messages_sent",
    "messages_received",
    "words_sent",
    "words_received",
    "collective_ops",
    "exchange_ops",
)

FAULT_SPEC = "seed:5,stragglers:0.25,droprate:0.2"


def make_comm(p):
    return SimulatedMachine(p, spec=laptop_like(), seed=9).world()


def random_pieces(p, r, seed=0, max_piece=30):
    """pieces[i][j]: keys in the j-th value range so group ordering is checkable."""
    rng = np.random.default_rng(seed)
    pieces = []
    for i in range(p):
        row = []
        for j in range(r):
            size = int(rng.integers(0, max_piece + 1))
            row.append(rng.integers(j * 1000, (j + 1) * 1000, size=size, dtype=np.int64))
        pieces.append(row)
    return pieces


def skewed_pieces(p, r, seed, skew):
    """Random pieces in group key ranges.

    With ``skew``, most pieces are tiny (0-2 elements) among a few large
    ones: the adversarial shape for the message bounds of Section 4.3.
    """
    rng = np.random.default_rng(seed)
    if skew:
        sizes = np.where(
            rng.random((p, r)) < 0.8,
            rng.integers(0, 3, size=(p, r)),
            rng.integers(20, 120, size=(p, r)),
        )
    else:
        sizes = rng.integers(0, 30, size=(p, r))
    return [
        [
            rng.integers(j * 1000, (j + 1) * 1000, size=int(sizes[i, j]))
            for j in range(r)
        ]
        for i in range(p)
    ]


def total_of_group(pieces, j):
    return int(sum(pieces[i][j].size for i in range(len(pieces))))


@pytest.mark.parametrize("method", DELIVERY_METHODS)
class TestDeliveryAllMethods:
    def test_conservation_and_group_membership(self, method):
        p, r = 8, 4
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = random_pieces(p, r, seed=1)
        result = deliver_to_groups(comm, groups, pieces, method=method)
        # every element arrives exactly once, in the right group's key range
        for j, group in enumerate(groups):
            received = []
            for rank in range(p):
                if result.group_of_rank[rank] == j:
                    received.append(result.received_concat(rank))
            got = np.sort(np.concatenate([x for x in received if x.size]) if received else np.empty(0))
            expected = np.sort(np.concatenate([pieces[i][j] for i in range(p)]))
            assert np.array_equal(got, expected)

    def test_balance_within_groups(self, method):
        p, r = 8, 2
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = random_pieces(p, r, seed=2, max_piece=50)
        result = deliver_to_groups(comm, groups, pieces, method=method)
        for j, group in enumerate(groups):
            m_j = total_of_group(pieces, j)
            p_g = group.size
            cap = math.ceil(m_j / p_g) if m_j else 0
            ranks = [rank for rank in range(p) if result.group_of_rank[rank] == j]
            sizes = [int(result.received_sizes[rank]) for rank in ranks]
            # deterministic method may exceed the block capacity slightly due
            # to whole small pieces; allow the documented slack.
            slack = cap if method == "deterministic" else 1
            assert max(sizes, default=0) <= cap + slack

    def test_time_charged_and_counters(self, method):
        p, r = 6, 3
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = random_pieces(p, r, seed=3)
        deliver_to_groups(comm, groups, pieces, method=method)
        assert comm.machine.elapsed() > 0

    def test_empty_pieces_everywhere(self, method):
        p, r = 4, 2
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = [[np.empty(0, dtype=np.int64) for _ in range(r)] for _ in range(p)]
        result = deliver_to_groups(comm, groups, pieces, method=method)
        assert result.received_sizes.sum() == 0

    def test_group_loads_reported(self, method):
        p, r = 6, 3
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = random_pieces(p, r, seed=4)
        result = deliver_to_groups(comm, groups, pieces, method=method)
        for j in range(r):
            assert result.group_loads[j] == total_of_group(pieces, j)


class TestDeliveryValidation:
    def test_unknown_method(self):
        comm = make_comm(4)
        groups = comm.split(2)
        pieces = random_pieces(4, 2)
        with pytest.raises(ValueError):
            deliver_to_groups(comm, groups, pieces, method="teleport")

    def test_wrong_piece_arity(self):
        comm = make_comm(4)
        groups = comm.split(2)
        pieces = [[np.empty(0)] for _ in range(4)]  # only one piece per PE
        with pytest.raises(ValueError):
            deliver_to_groups(comm, groups, pieces)

    def test_groups_must_partition(self):
        comm = make_comm(6)
        groups = comm.split(3)[:2]  # drop one group
        pieces = random_pieces(6, 2)
        with pytest.raises(ValueError):
            deliver_to_groups(comm, groups, pieces)

    def test_zero_groups(self):
        comm = make_comm(4)
        with pytest.raises(ValueError):
            deliver_to_groups(comm, [], [[] for _ in range(4)])

    @pytest.mark.parametrize("method", DELIVERY_METHODS)
    def test_batched_zero_groups(self, method):
        machine = SimulatedMachine(2, spec=laptop_like())
        island = GroupBatch(machine, np.arange(2), np.array([0, 2]))
        with pytest.raises(ValueError, match="at least one target group"):
            deliver_to_groups_batched(
                island, np.array([0]), np.empty(0, dtype=np.int64),
                np.empty(0), np.empty(0, dtype=np.int64), method=method,
            )

    @pytest.mark.parametrize("field, value, message", [
        ("group_counts", np.array([2]), "one group count per island"),
        ("subgroup_sizes", np.array([2, 1]),
         "sub-groups must partition their island"),
        ("subgroup_sizes", np.array([2, 1, 1]),
         "sub-groups must partition their island"),
        ("piece_sizes", np.ones(7, dtype=np.int64),
         r"one piece size per \(island, PE, group\)"),
        ("piece_values", np.arange(5), "piece_values size does not match"),
    ], ids=["group-counts", "subgroup-count", "subgroup-sum", "piece-sizes",
            "piece-values"])
    def test_batched_malformed_flat_layout(self, field, value, message):
        """Each malformed flat level layout raises its own ``ValueError``.

        The valid layout: islands of 3 and 2 PEs, split into 2 and 1
        sub-groups, six plus two pieces of one element each.
        """
        machine = SimulatedMachine(5, spec=laptop_like())
        islands = GroupBatch(machine, np.arange(5), np.array([0, 3, 5]))
        args = dict(
            group_counts=np.array([2, 1]),
            subgroup_sizes=np.array([2, 1, 2]),
            piece_values=np.arange(8),
            piece_sizes=np.ones(8, dtype=np.int64),
        )
        deliver_to_groups_batched(islands, **args)
        args[field] = value
        with pytest.raises(ValueError, match=message):
            deliver_to_groups_batched(islands, **args)

    def test_batched_deterministic_key_overflow_raises(self):
        """Composed (pair, position) keys past int64 raise, never fall back.

        Only piece sizes enter the assignment, so one 2**61-element piece
        (no data behind it) reaches the bound without allocating anything.
        """
        # A (3, 2) piece matrix [[2**61, 0], [1, 1], [0, 1]] enumerated
        # (group, sender), delivered to sub-groups of 2 and 1 PEs.
        sizes = np.array([2**61, 1, 0, 0, 1, 1], dtype=np.int64)
        with pytest.raises(OverflowError):
            _flat_assign_deterministic_batched(
                sizes, np.cumsum(sizes) - sizes, np.tile(np.arange(3), 2),
                np.array([3]), np.array([2]), np.array([2, 1]),
                np.array([0, 2]),
            )


class TestMessageBounds:
    def test_sender_message_bound(self):
        """Each PE sends at most O(r) messages (pieces split over <= a few targets)."""
        p, r = 16, 4
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = random_pieces(p, r, seed=5, max_piece=40)
        result = deliver_to_groups(comm, groups, pieces, method="deterministic")
        assert result.max_sent_messages() <= 3 * r

    def test_naive_worst_case_concentrates_messages(self):
        """The adversarial tiny-piece input makes one PE of each group receive
        a message from nearly every sender under naive delivery ..."""
        p, r = 16, 2
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = []
        for i in range(p):
            if i == 0:
                pieces.append([np.arange(200), np.arange(200)])
            else:
                pieces.append([np.array([1]), np.array([1])])
        naive = deliver_to_groups(comm, groups, pieces, method="naive")
        assert naive.max_received_messages() >= p - 2

    def test_randomization_or_determinism_spreads_messages(self):
        """... while the deterministic two-phase algorithm bounds it by O(r)."""
        p, r = 16, 2
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = []
        for i in range(p):
            if i == 0:
                pieces.append([np.arange(200), np.arange(200)])
            else:
                pieces.append([np.array([1]), np.array([1])])
        det = deliver_to_groups(comm, groups, pieces, method="deterministic")
        naive = deliver_to_groups(make_comm(p), make_comm(p).split(r), pieces, method="naive")
        assert det.max_received_messages() < naive.max_received_messages()
        assert det.max_received_messages() <= 2 * r + 2

    @pytest.mark.parametrize("method", ["naive", "randomized", "deterministic"])
    @given(
        st.integers(1, 16),
        st.integers(1, 16),
        st.integers(0, 10_000),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_one_message_per_source_destination_pair(
        self, method, p, r, seed, skew
    ):
        """No receiver gets two non-empty messages from one source.

        The flat engine relies on this for its vectorised kept-piece charge
        and for the column-major piece plane.  ``advanced`` is excluded: its
        chunking sends several messages per pair by design.
        """
        r = min(r, p)
        comm = make_comm(p)
        pieces = skewed_pieces(p, r, seed, skew)
        result = deliver_to_groups(
            comm, comm.split(r), pieces, method=method, seed=seed
        )
        for rank, inbox in enumerate(result.exchange.inboxes):
            sources = [src for src, payload in inbox if payload.size > 0]
            assert len(sources) == len(set(sources)), rank

    def test_advanced_bounds_received_messages(self):
        p, r = 16, 4
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = random_pieces(p, r, seed=6, max_piece=100)
        result = deliver_to_groups(comm, groups, pieces, method="advanced")
        # Lemma 6: <= 1 + 2r(1 + 1/a) received messages w.h.p., with
        # a = max(1, sqrt(r / ln(r p))) = 1 here.
        a = max(1.0, np.sqrt(r / np.log(r * p)))
        assert a == 1.0
        assert result.max_received_messages() <= 1 + 2 * r * (1 + 1 / a)


class TestDeliveryProperties:
    @given(
        st.integers(2, 8),
        st.integers(1, 4),
        st.integers(0, 10_000),
        st.sampled_from(list(DELIVERY_METHODS)),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_conservation(self, p, r, seed, method):
        r = min(r, p)
        comm = make_comm(p)
        groups = comm.split(r)
        pieces = random_pieces(p, r, seed=seed, max_piece=12)
        result = deliver_to_groups(comm, groups, pieces, method=method, seed=seed)
        sent = sorted(
            np.concatenate(
                [pieces[i][j] for i in range(p) for j in range(r)]
            ).tolist()
        ) if any(pieces[i][j].size for i in range(p) for j in range(r)) else []
        received = sorted(
            np.concatenate(
                [result.received_concat(rank) for rank in range(p)]
            ).tolist()
        ) if result.received_sizes.sum() else []
        assert sent == received


def batched_inputs(shapes, pieces, piece_layout):
    """``deliver_to_groups_batched`` inputs for islands of ``(p, r)`` shapes.

    Returns the island offsets, the group counts, the flat sub-group sizes
    (``Comm.split`` sizes) and ``(island, PE, group)`` piece sizes, and the
    flat piece buffer.
    """
    offsets = np.concatenate([[0], np.cumsum([p for p, _ in shapes])])
    counts = np.array([r for _, r in shapes])
    group_sizes = np.array([g.size for p, r in shapes
                            for g in np.array_split(np.arange(p), r)])
    sizes = np.array([x.size for isl in pieces for row in isl for x in row],
                     dtype=np.int64)
    if piece_layout == "rowmaj":
        parts = [x for isl in pieces for row in isl for x in row]
    else:
        parts = [isl[i][j] for isl, (p, r) in zip(pieces, shapes)
                 for j in range(r) for i in range(p)]
    return offsets, counts, group_sizes, sizes, np.concatenate(parts)


class TestBatchedDeliveryEquivalence:
    """A many-island ``deliver_to_groups_batched`` is the per-PE reference."""

    @given(
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 10_000),
        st.sampled_from(list(DELIVERY_METHODS)),
        st.sampled_from(["sparse", "dense"]),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["rowmaj", "colmaj"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_one_island_matches_reference(
        self, p, r, seed, method, schedule, skew, faulty, piece_layout
    ):
        r = min(r, p)  # comm.split(r) is uneven whenever r does not divide p
        pieces = skewed_pieces(p, r, seed, skew)
        faults = FAULT_SPEC if faulty else None
        kwargs = dict(method=method, seed=seed, schedule=schedule)

        m_ref = SimulatedMachine(p, spec=laptop_like(), seed=9, faults=faults)
        world = m_ref.world()
        ref = deliver_to_groups(world, world.split(r), pieces, **kwargs)

        m_flat = SimulatedMachine(p, spec=laptop_like(), seed=9, faults=faults)
        island = GroupBatch(m_flat, np.arange(p), np.array([0, p]))
        sizes = np.array([piece.size for row in pieces for piece in row])
        if piece_layout == "rowmaj":
            values = np.concatenate([piece for row in pieces for piece in row])
        else:
            values = np.concatenate(
                [row[j] for j in range(r) for row in pieces]
            )
        group_sizes = np.array([g.size for g in m_flat.world().split(r)])
        res = deliver_to_groups_batched(
            island, np.array([r]), group_sizes, values, sizes,
            piece_layout=piece_layout, **kwargs
        )

        for rank in range(p):
            assert np.array_equal(
                res.received.segment(rank), ref.received_concat(rank)
            ), rank
        assert np.array_equal(res.received_sizes, ref.received_sizes)
        assert np.array_equal(m_flat.clock, m_ref.clock)
        assert sorted(m_flat.breakdown.phases()) == sorted(m_ref.breakdown.phases())
        for phase in m_ref.breakdown.phases():
            assert np.array_equal(
                m_flat.breakdown.per_pe(phase), m_ref.breakdown.per_pe(phase)
            ), phase
        for name in COUNTER_FIELDS:
            assert np.array_equal(
                getattr(m_flat.counters, name), getattr(m_ref.counters, name)
            ), name

    @given(
        st.lists(st.tuples(st.integers(1, 6), st.integers(1, 6)),
                 min_size=1, max_size=4),
        st.integers(0, 10_000),
        st.sampled_from(list(DELIVERY_METHODS)),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_layouts_send_same_messages(
        self, shapes, seed, method, skew
    ):
        """Row- and column-major buffers of a many-island batch deliver alike.

        Islands whose groups are all single PEs mix with islands of larger
        groups, so the in-place column-major result and the message
        assembly both run, alone and side by side.
        """
        shapes = [(p, min(r, p)) for p, r in shapes]
        pieces = [
            skewed_pieces(p, r, seed + k, skew)
            for k, (p, r) in enumerate(shapes)
        ]
        out = {}
        for layout in ("rowmaj", "colmaj"):
            offsets, counts, group_sizes, sizes, values = batched_inputs(
                shapes, pieces, layout
            )
            machine = SimulatedMachine(int(offsets[-1]), spec=laptop_like(), seed=9)
            res = deliver_to_groups_batched(
                GroupBatch(machine, np.arange(offsets[-1]), offsets),
                counts, group_sizes, values, sizes,
                method=method, seed=seed, piece_layout=layout,
            )
            out[layout] = (res, machine)
        (row, m_row), (col, m_col) = out["rowmaj"], out["colmaj"]
        assert col.received.values.tobytes() == row.received.values.tobytes()
        assert np.array_equal(col.received_sizes, row.received_sizes)
        assert np.array_equal(col.nonempty_runs, row.nonempty_runs)
        assert np.array_equal(m_col.clock, m_row.clock)
        for phase in m_row.breakdown.phases():
            assert np.array_equal(
                m_col.breakdown.per_pe(phase), m_row.breakdown.per_pe(phase)
            ), phase
        for name in COUNTER_FIELDS:
            assert np.array_equal(
                getattr(m_col.counters, name), getattr(m_row.counters, name)
            ), name

    @given(
        st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)),
                 min_size=2, max_size=4),
        st.integers(0, 10_000),
        st.sampled_from(list(DELIVERY_METHODS)),
        st.sampled_from(["sparse", "dense"]),
        st.booleans(),
        st.booleans(),
        st.sampled_from(["rowmaj", "colmaj"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_property_many_islands_match_reference_per_island(
        self, shapes, seed, method, schedule, skew, faulty, piece_layout
    ):
        """One batch of islands equals one reference call per island.

        The reference delivers island by island on its own communicator of
        an identical machine; islands of single-PE groups mix with islands
        of larger ones.
        """
        shapes = [(p, min(r, p)) for p, r in shapes]
        pieces = [
            skewed_pieces(p, r, seed + k, skew)
            for k, (p, r) in enumerate(shapes)
        ]
        offsets, counts, group_sizes, sizes, values = batched_inputs(
            shapes, pieces, piece_layout
        )
        total_p = int(offsets[-1])
        faults = FAULT_SPEC if faulty else None
        kwargs = dict(method=method, seed=seed, schedule=schedule)

        m_ref = SimulatedMachine(total_p, spec=laptop_like(), seed=9, faults=faults)
        refs = []
        for k, (p, r) in enumerate(shapes):
            comm = Comm(m_ref, np.arange(offsets[k], offsets[k + 1]))
            refs.append(deliver_to_groups(comm, comm.split(r), pieces[k], **kwargs))

        m_flat = SimulatedMachine(total_p, spec=laptop_like(), seed=9, faults=faults)
        res = deliver_to_groups_batched(
            GroupBatch(m_flat, np.arange(total_p), offsets), counts,
            group_sizes, values, sizes, piece_layout=piece_layout, **kwargs
        )

        for k, ref in enumerate(refs):
            for i in range(shapes[k][0]):
                got = res.received.segment(int(offsets[k]) + i)
                want = ref.received_concat(i)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            assert np.array_equal(
                res.received_sizes[offsets[k]:offsets[k + 1]], ref.received_sizes
            )
        assert np.array_equal(m_flat.clock, m_ref.clock)
        assert sorted(m_flat.breakdown.phases()) == sorted(m_ref.breakdown.phases())
        for phase in m_ref.breakdown.phases():
            assert np.array_equal(
                m_flat.breakdown.per_pe(phase), m_ref.breakdown.per_pe(phase)
            ), phase
        for name in COUNTER_FIELDS:
            assert np.array_equal(
                getattr(m_flat.counters, name), getattr(m_ref.counters, name)
            ), name

    def test_naive_colmaj_plane_is_received_in_place(self):
        """Naive delivery takes a column-major plane as the received data.

        Each (island, group) pair's prefix-sum stream is that pair's run of
        the plane, cut in receiver order, so the plane is returned itself,
        not a copy, even where groups hold several PEs.
        """
        shapes = [(5, 2), (7, 3), (3, 3), (6, 1)]
        pieces = [
            skewed_pieces(p, r, 11 + k, skew=True)
            for k, (p, r) in enumerate(shapes)
        ]
        offsets, counts, group_sizes, sizes, values = batched_inputs(
            shapes, pieces, "colmaj"
        )
        machine = SimulatedMachine(int(offsets[-1]), spec=laptop_like(), seed=9)
        res = deliver_to_groups_batched(
            GroupBatch(machine, np.arange(offsets[-1]), offsets), counts,
            group_sizes, values, sizes, method="naive", piece_layout="colmaj",
        )
        assert res.received.values is values
