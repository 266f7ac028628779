"""AMS-sort's blocked bucket processing against a whole-machine oracle.

:class:`repro.core.ams_sort._LevelBlocks` cuts a level's batch into
cache-sized blocks and builds the global bucket sizes, the ``(PE, group)``
piece sizes and the column-major piece plane block by block.  The oracle
does each in one whole-machine call: ``np.bincount`` of island-offset
bucket keys and of ``(PE, group)`` keys, and a stable ``np.argsort`` of
the ``(island, group)`` keys plus a gather.  The block size is patched
small, so that islands span several blocks and several islands share one.
"""

import importlib
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

ams_module = importlib.import_module("repro.core.ams_sort")


@st.composite
def level_layouts(draw):
    """One level's batch: islands of PEs, buckets, groups and values.

    Islands hold 2..6 PEs, 2..8 groups and 1..12 buckets each; a PE may be
    empty and so may a whole island.  Optionally one island has 257..300
    groups, past the 8-bit radix keys.  Each island's bucket -> group
    table is nondecreasing, as the bucket grouping produces it, and may
    leave groups empty.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_isl = draw(st.integers(1, 6))
    p_k = np.array(draw(st.lists(st.integers(2, 6), min_size=n_isl,
                                 max_size=n_isl)), dtype=np.int64)
    r_k = np.array(draw(st.lists(st.integers(2, 8), min_size=n_isl,
                                 max_size=n_isl)), dtype=np.int64)
    if draw(st.booleans()):
        r_k[draw(st.integers(0, n_isl - 1))] = draw(st.integers(257, 300))
    nb_k = np.array(draw(st.lists(st.integers(1, 12), min_size=n_isl,
                                  max_size=n_isl)), dtype=np.int64)
    max_pe = draw(st.sampled_from([0, 3, 20, 80]))
    pe_sizes = rng.integers(0, max_pe + 1, int(p_k.sum()))
    pe_sizes[rng.random(pe_sizes.size) < 0.2] = 0
    act_off = np.zeros(n_isl + 1, dtype=np.int64)
    np.cumsum(p_k, out=act_off[1:])
    for k in np.flatnonzero(rng.random(n_isl) < 0.2):
        pe_sizes[act_off[k]:act_off[k + 1]] = 0
    pe_off = np.zeros(pe_sizes.size + 1, dtype=np.int64)
    np.cumsum(pe_sizes, out=pe_off[1:])
    nb_off = np.zeros(n_isl + 1, dtype=np.int64)
    np.cumsum(nb_k, out=nb_off[1:])
    isl_elem = pe_off[act_off]
    isl_of_elem = np.repeat(np.arange(n_isl), np.diff(isl_elem))
    bucket_of = rng.integers(0, nb_k[isl_of_elem]) if isl_of_elem.size \
        else np.empty(0, dtype=np.int64)
    lut = np.concatenate([
        np.sort(rng.integers(0, r, nb)) for r, nb in zip(r_k, nb_k)
    ]).astype(np.int32)
    values = rng.permutation(int(pe_off[-1])).astype(np.int64)
    return pe_off, act_off, isl_elem, nb_off, r_k, bucket_of, lut, values


@given(level_layouts(), st.sampled_from([4, 37, 2**16]))
@settings(max_examples=150, deadline=None)
def test_blocks_match_whole_machine_oracle(layout, block):
    pe_off, act_off, isl_elem, nb_off, r_k, bucket_of, lut, values = layout
    n_isl = r_k.size
    q = int(act_off[-1])
    isl_of_elem = np.repeat(np.arange(n_isl), np.diff(isl_elem))
    pe_of_elem = np.repeat(np.arange(q), np.diff(pe_off))
    group = lut[nb_off[isl_of_elem] + bucket_of].astype(np.int64)
    pc_off = np.zeros(q + 1, dtype=np.int64)
    np.cumsum(np.repeat(r_k, np.diff(act_off)), out=pc_off[1:])
    g_off = np.zeros(n_isl + 1, dtype=np.int64)
    np.cumsum(r_k, out=g_off[1:])

    with mock.patch.object(ams_module, "_BLOCK_ELEMS", block):
        blocks = ams_module._LevelBlocks(pe_off, act_off, isl_elem, nb_off)
        sizes = blocks.bucket_sizes(bucket_of)
        piece_values, piece_len = blocks.reorder_pieces(
            values, bucket_of, lut, r_k, sizes
        )

    # Blocks tile the batch at PE boundaries; each is whole islands or a
    # slice of one island.
    assert blocks.blocks[0][0] == 0 and blocks.blocks[-1][1] == q
    for (_, hi, *_), (lo, *_) in zip(blocks.blocks, blocks.blocks[1:]):
        assert hi == lo
    for pe_lo, pe_hi, _, _, i_lo, i_hi, split in blocks.blocks:
        whole = act_off[i_lo] == pe_lo and act_off[i_hi] == pe_hi
        assert split != whole
        assert whole or i_hi == i_lo + 1

    assert np.array_equal(sizes, np.bincount(
        nb_off[isl_of_elem] + bucket_of, minlength=int(nb_off[-1])
    ))
    assert np.array_equal(piece_len, np.bincount(
        pc_off[pe_of_elem] + group, minlength=int(pc_off[-1])
    ))
    expected = values[np.argsort(g_off[isl_of_elem] + group, kind="stable")]
    assert piece_values.dtype == expected.dtype
    assert piece_values.tobytes() == expected.tobytes()


def test_keys_past_16_bits():
    """Blocks whose sort keys exceed 16 bits take the two-key argsort.

    130 two-PE islands with 512 groups each share one block: 66,560
    (island, group) keys.
    """
    rng = np.random.default_rng(3)
    n_isl, r = 130, 512
    act_off = np.arange(n_isl + 1, dtype=np.int64) * 2
    pe_sizes = rng.integers(0, 4, 2 * n_isl)
    pe_off = np.zeros(pe_sizes.size + 1, dtype=np.int64)
    np.cumsum(pe_sizes, out=pe_off[1:])
    isl_elem = pe_off[act_off]
    nb_off = np.arange(n_isl + 1, dtype=np.int64) * r
    lut = np.tile(np.arange(r, dtype=np.int32), n_isl)
    isl_of_elem = np.repeat(np.arange(n_isl), np.diff(isl_elem))
    pe_of_elem = np.repeat(np.arange(2 * n_isl), pe_sizes)
    bucket_of = rng.integers(0, r, isl_of_elem.size)
    values = rng.permutation(isl_of_elem.size).astype(np.int64)
    r_k = np.full(n_isl, r, dtype=np.int64)

    with mock.patch.object(ams_module, "_BLOCK_ELEMS", 2**16):
        blocks = ams_module._LevelBlocks(pe_off, act_off, isl_elem, nb_off)
        sizes = blocks.bucket_sizes(bucket_of)
        piece_values, piece_len = blocks.reorder_pieces(
            values, bucket_of, lut, r_k, sizes
        )
    assert len(blocks.blocks) == 1
    expected = values[np.argsort(isl_of_elem * r + bucket_of, kind="stable")]
    assert piece_values.tobytes() == expected.tobytes()
    assert np.array_equal(piece_len, np.bincount(
        pe_of_elem * r + bucket_of, minlength=2 * n_isl * r
    ))


@given(level_layouts(), st.sampled_from([4, 37, 300]))
@settings(max_examples=100, deadline=None)
def test_blocks_stay_cache_sized(layout, block):
    """Every block holds fewer than two block sizes of elements.

    The one exception is a block that ends with a PE larger than a block
    size; the elements before that PE still number fewer than one.
    """
    pe_off, act_off, isl_elem, nb_off, *_ = layout
    with mock.patch.object(ams_module, "_BLOCK_ELEMS", block):
        blocks = ams_module._LevelBlocks(pe_off, act_off, isl_elem, nb_off)
    for pe_lo, pe_hi, e_lo, e_hi, *_ in blocks.blocks:
        assert (e_lo, e_hi) == (pe_off[pe_lo], pe_off[pe_hi])
        last_pe = int(pe_off[pe_hi] - pe_off[pe_hi - 1])
        if last_pe > block:
            assert e_hi - e_lo - last_pe < block
        else:
            assert e_hi - e_lo < 2 * block
