"""Tests for :mod:`repro.sim.exchange`."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine.spec import laptop_like
from repro.sim.exchange import (
    direct_schedule,
    one_factor_schedule,
    verify_one_factor,
)
from repro.sim.machine import SimulatedMachine


def make_comm(p):
    return SimulatedMachine(p, spec=laptop_like(), seed=0).world()


class TestOneFactorSchedule:
    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8, 9, 16, 17])
    def test_valid_one_factorisation(self, p):
        rounds = one_factor_schedule(p)
        assert verify_one_factor(rounds, p)

    def test_round_count_even(self):
        assert len(one_factor_schedule(8)) == 7

    def test_round_count_odd(self):
        assert len(one_factor_schedule(7)) == 7

    def test_single_pe(self):
        assert one_factor_schedule(1) == []

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            one_factor_schedule(0)

    def test_direct_schedule_covers_all_pairs(self):
        rounds = direct_schedule(4)
        assert len(rounds) == 1
        assert len(rounds[0]) == 6

    def test_verify_rejects_duplicates(self):
        assert not verify_one_factor([[(0, 1)], [(0, 1)]], 2)

    def test_verify_rejects_busy_pe(self):
        assert not verify_one_factor([[(0, 1), (1, 2)], [(0, 2)]], 3)

    @pytest.mark.parametrize("p", [2, 3, 4, 5, 8])
    def test_exchange_reports_schedule_rounds(self, p):
        # The exchange reports its round count in closed form; it must be
        # the length of the schedule it stands for.
        outboxes = [[((i + 1) % p, np.arange(3))] for i in range(p)]
        sparse = make_comm(p).exchange(outboxes, schedule="sparse")
        dense = make_comm(p).exchange(outboxes, schedule="dense")
        assert sparse.rounds == len(one_factor_schedule(p))
        assert dense.rounds == len(direct_schedule(p))


class TestExchangeSemantics:
    def test_simple_exchange_delivers_payloads(self):
        comm = make_comm(3)
        outboxes = [
            [(1, np.array([1, 2])), (2, np.array([3]))],
            [(2, np.array([4, 5, 6]))],
            [],
        ]
        result = comm.exchange(outboxes)
        assert result.received_arrays(0) == []
        assert [a.tolist() for a in result.received_arrays(1)] == [[1, 2]]
        assert [a.tolist() for a in result.received_arrays(2)] == [[3], [4, 5, 6]]

    def test_inboxes_sorted_by_source(self):
        comm = make_comm(4)
        outboxes = [[] for _ in range(4)]
        outboxes[3] = [(0, np.array([30]))]
        outboxes[1] = [(0, np.array([10]))]
        outboxes[2] = [(0, np.array([20]))]
        result = comm.exchange(outboxes)
        sources = [src for src, _ in result.inboxes[0]]
        assert sources == [1, 2, 3]

    def test_word_and_message_counts(self):
        comm = make_comm(3)
        outboxes = [
            [(1, np.arange(5)), (2, np.arange(7))],
            [(2, np.arange(2))],
            [],
        ]
        result = comm.exchange(outboxes)
        assert result.words_sent.tolist() == [12, 2, 0]
        assert result.words_received.tolist() == [0, 5, 9]
        assert result.messages_sent.tolist() == [2, 1, 0]
        assert result.messages_received.tolist() == [0, 1, 2]
        assert result.h_words == 12
        assert result.r_messages == 2

    def test_empty_messages_skipped_in_sparse_mode(self):
        comm = make_comm(2)
        outboxes = [[(1, np.empty(0))], []]
        result = comm.exchange(outboxes, schedule="sparse")
        assert result.messages_sent.tolist() == [0, 0]
        # data is still delivered (an empty array)
        assert len(result.inboxes[1]) == 1

    def test_dense_mode_counts_p_minus_one(self):
        comm = make_comm(4)
        outboxes = [[] for _ in range(4)]
        result = comm.exchange(outboxes, schedule="dense")
        assert result.messages_sent.tolist() == [3, 3, 3, 3]
        assert result.r_messages == 3

    def test_dense_costs_more_than_sparse_for_empty_traffic(self):
        m1 = SimulatedMachine(8, spec=laptop_like())
        m2 = SimulatedMachine(8, spec=laptop_like())
        m1.world().exchange([[] for _ in range(8)], schedule="sparse")
        m2.world().exchange([[] for _ in range(8)], schedule="dense")
        assert m2.elapsed() > m1.elapsed()

    def test_invalid_destination(self):
        comm = make_comm(2)
        with pytest.raises(IndexError):
            comm.exchange([[(5, np.array([1]))], []])

    def test_wrong_outbox_count(self):
        comm = make_comm(2)
        with pytest.raises(ValueError):
            comm.exchange([[]])

    def test_unknown_schedule(self):
        comm = make_comm(2)
        with pytest.raises(ValueError):
            comm.exchange([[], []], schedule="bogus")

    def test_exchange_synchronises_clocks(self):
        comm = make_comm(4)
        comm.charge_local(2, 1.0)
        comm.exchange([[] for _ in range(4)])
        assert np.allclose(comm.machine.clock, comm.machine.clock[0])

    def test_counters_updated_on_machine(self):
        comm = make_comm(3)
        comm.exchange([[(1, np.arange(10))], [], []])
        assert comm.machine.counters.total_messages() == 1
        assert comm.machine.counters.total_volume() == 10

    def test_time_includes_alpha_and_beta(self):
        comm = make_comm(2)
        result = comm.exchange([[(1, np.arange(1000))], []], charge_copy=False)
        spec = comm.spec
        assert result.time == pytest.approx(spec.alpha + 1000 * spec.beta, rel=1e-6)


class TestExchangeProperties:
    @given(st.integers(2, 6), st.integers(0, 40), st.integers(1, 97))
    @settings(max_examples=25, deadline=None)
    def test_conservation_of_elements(self, p, max_size, seed):
        """Whatever is sent is received exactly once (element conservation)."""
        rng = np.random.default_rng(seed)
        comm = make_comm(p)
        outboxes = []
        total_sent = 0
        for i in range(p):
            msgs = []
            for _ in range(rng.integers(0, 4)):
                dest = int(rng.integers(0, p))
                payload = rng.integers(0, 1000, size=rng.integers(0, max_size + 1))
                msgs.append((dest, payload))
                total_sent += payload.size
            outboxes.append(msgs)
        result = comm.exchange(outboxes)
        total_received = sum(
            payload.size for inbox in result.inboxes for _, payload in inbox
        )
        assert total_received == total_sent
        assert int(result.words_sent.sum()) == total_sent
        assert int(result.words_received.sum()) == total_sent
