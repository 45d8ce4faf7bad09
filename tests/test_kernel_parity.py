"""Randomized parity battery: every optimized kernel vs its plain oracle.

The truth-table hot loops (ISOP core, NPN canonizer, cofactor sweeps,
``expand_tt``, the batched cone-truth kernel) and the packed word-array
representation the resynthesis pool's shared-memory transport ships
each claim bit-identity with the straightforward formulation they
replaced; this module pins every claim
against an embedded or retained scalar reference over hundreds of random
tables and cut shapes, plus the degenerate corners (constants,
single-leaf cuts, duplicate leaves) where index arithmetic likes to go
wrong.
"""

from __future__ import annotations

import random

import pytest

from repro.aig import AIG, cone_truth, full_mask, var_mask
from repro.aig.simulate import batch_cone_truths
from repro.cuts.reconv import reconv_cut
from repro.errors import ReproError, TruthTableError
from repro.engine.pack import PackedTasks, WaveSegment, leaked_segments
from repro.tt import isop, isop_exact, npn_canonize, sop_tt
from repro.factor import factoring
from repro.factor.factoring import clear_factor_memo, factor, verify_factoring
from repro.tt.isop import clear_isop_memo
from repro.tt.npn import (
    _ALL_PERMS,
    _FULL,
    _INDEX,
    N_MINTERMS,
    apply_transform,
    invert_transform,
)
from repro.tt.truth import (
    bits_to_tt,
    cofactor0,
    cofactor0_many,
    cofactor1,
    cofactor1_many,
    expand_tt,
    expand_tt_scalar,
    pack_tts,
    tt_to_bits,
    tt_to_words,
    unpack_tts,
    words_per_table,
    words_to_tt,
)

from .util import random_aig


def _random_tables(rng: random.Random, n_vars: int, count: int) -> list[int]:
    ones = full_mask(n_vars)
    tables = [0, ones]  # always hit the constants
    if n_vars:
        tables.append(var_mask(0, n_vars))
    tables += [rng.getrandbits(1 << n_vars) & ones for _ in range(count)]
    return tables


# ----------------------------------------------------------------------
# Minato-Morreale ISOP: inlined big-int core vs truth-helper composition
# ----------------------------------------------------------------------


def _isop_reference(lower: int, upper: int, n_vars: int) -> tuple[list[int], int]:
    """The pre-optimization formulation: cofactors via the
    :mod:`repro.tt.truth` helpers, base cases checked on entry, no memo.

    The production ``_isop`` must return the *same cube list in the same
    order* — the factored forms (and therefore committed graphs) depend
    on it.
    """
    ones = full_mask(n_vars)
    if lower == 0:
        return [], 0
    if upper == ones:
        return [0], ones
    var = n_vars - 1
    while var >= 0:
        if cofactor0(lower, var, n_vars) != cofactor1(lower, var, n_vars) or (
            cofactor0(upper, var, n_vars) != cofactor1(upper, var, n_vars)
        ):
            break
        var -= 1
    assert var >= 0
    l0 = cofactor0(lower, var, n_vars)
    l1 = cofactor1(lower, var, n_vars)
    u0 = cofactor0(upper, var, n_vars)
    u1 = cofactor1(upper, var, n_vars)
    cubes0, cover0 = _isop_reference(l0 & ~u1, u0, n_vars)
    cubes1, cover1 = _isop_reference(l1 & ~u0, u1, n_vars)
    remainder = (l0 & ~cover0) | (l1 & ~cover1)
    cubes_star, cover_star = _isop_reference(remainder, u0 & u1, n_vars)
    mask = var_mask(var, n_vars)
    cubes = (
        [c | 1 << (2 * var + 1) for c in cubes0]
        + [c | 1 << (2 * var) for c in cubes1]
        + cubes_star
    )
    cover = (cover0 & ~mask & ones) | (cover1 & mask) | cover_star
    return cubes, cover


class TestIsopParity:
    def test_exact_covers_match_reference_cube_lists(self):
        rng = random.Random(71)
        clear_isop_memo()
        for n_vars in (1, 2, 3, 4, 6, 8):
            for tt in _random_tables(rng, n_vars, 60):
                expected, cover = _isop_reference(tt, tt, n_vars)
                assert cover == tt
                assert isop_exact(tt, n_vars) == expected

    def test_interval_covers_match_reference_cube_lists(self):
        rng = random.Random(72)
        for n_vars in (2, 3, 4, 6):
            ones = full_mask(n_vars)
            for _ in range(80):
                lower = rng.getrandbits(1 << n_vars) & ones
                upper = lower | (rng.getrandbits(1 << n_vars) & ones)
                assert isop(lower, upper, n_vars) == (
                    _isop_reference(lower, upper, n_vars)[0]
                )

    def test_memo_state_never_changes_results(self):
        # The same table asked cold and warm must produce the same list.
        rng = random.Random(73)
        tables = _random_tables(rng, 6, 40)
        clear_isop_memo()
        cold = [isop_exact(tt, 6) for tt in tables]
        warm = [isop_exact(tt, 6) for tt in tables]
        assert cold == warm
        for tt, cubes in zip(tables, cold):
            assert sop_tt(cubes, 6) == tt


class TestFactorMemo:
    def test_memo_state_never_changes_trees(self, monkeypatch):
        rng = random.Random(74)
        sops = [isop_exact(tt, 7) for tt in _random_tables(rng, 7, 40)]
        jobs = [(cubes, method) for method in ("quick", "good") for cubes in sops]
        clear_factor_memo()
        cold = [factor(cubes, method=method) for cubes, method in jobs]
        warm = [factor(cubes, method=method) for cubes, method in jobs]
        assert cold == warm
        # A one-entry cap clears on every insert: effectively unmemoized.
        monkeypatch.setattr(factoring, "FACTOR_MEMO_LIMIT", 1)
        clear_factor_memo()
        assert [factor(cubes, method=method) for cubes, method in jobs] == cold
        assert len(factoring._MEMO) <= 1
        for (cubes, _method), tree in zip(jobs, cold):
            assert verify_factoring(cubes, tree, 7)


# ----------------------------------------------------------------------
# NPN canonizer: argmin gather vs the scalar first-strict-minimum scan
# ----------------------------------------------------------------------


def _npn_canonize_reference(tt: int):
    """The scalar canonizer the vectorized one replaced: the first strict
    minimum over (perm, input flips, output flip) in loop-nest order."""
    best = None
    best_transform = None
    for perm in _ALL_PERMS:
        for flips in range(N_MINTERMS):
            index = _INDEX[(perm, flips)]
            candidate = 0
            for v in range(N_MINTERMS):
                if tt >> index[v] & 1:
                    candidate |= 1 << v
            for output_flip in (False, True):
                value = candidate ^ (_FULL if output_flip else 0)
                if best is None or value < best:
                    best = value
                    best_transform = (perm, flips, output_flip)
    return best, invert_transform(best_transform)


class TestNpnParity:
    def test_random_tables_pick_identical_transforms(self):
        rng = random.Random(74)
        tables = [0, _FULL, 0xAAAA, 0x8000, 0x0001]
        tables += [rng.getrandbits(16) for _ in range(400)]
        for tt in tables:
            canonical, transform = npn_canonize(tt)
            ref_canonical, ref_transform = _npn_canonize_reference(tt)
            assert canonical == ref_canonical
            # Not just the same class: the same representative transform
            # (the rewrite cache keys instantiation off it).
            assert transform == ref_transform
            assert apply_transform(canonical, transform) == tt

    def test_rejects_wide_tables(self):
        with pytest.raises(TruthTableError):
            npn_canonize(1 << 16)


# ----------------------------------------------------------------------
# Packed word-array kernels
# ----------------------------------------------------------------------


class TestPackedCofactors:
    @pytest.mark.parametrize("n_vars", [1, 2, 5, 6, 7, 8, 10])
    def test_both_cofactors_all_vars(self, n_vars):
        rng = random.Random(75 + n_vars)
        tables = _random_tables(rng, n_vars, 40)
        words = pack_tts(tables, n_vars)
        for var in range(n_vars):
            lo = cofactor0_many(words, var, n_vars)
            hi = cofactor1_many(words, var, n_vars)
            for row in range(len(tables)):
                assert words_to_tt(lo[row]) == cofactor0(tables[row], var, n_vars)
                assert words_to_tt(hi[row]) == cofactor1(tables[row], var, n_vars)

    def test_shape_and_range_checks(self):
        words = pack_tts([0b1010], 2)
        with pytest.raises(TruthTableError):
            cofactor0_many(words, 2, 2)  # var out of range
        with pytest.raises(TruthTableError):
            cofactor1_many(words, 0, 7)  # wrong word width for 7 vars


class TestPackRoundTrips:
    @pytest.mark.parametrize("n_vars", [0, 1, 3, 6, 7, 9])
    def test_single_and_batch_word_round_trips(self, n_vars):
        rng = random.Random(76 + n_vars)
        tables = _random_tables(rng, n_vars, 50)
        for tt in tables:
            assert words_to_tt(tt_to_words(tt, n_vars)) == tt
        packed = pack_tts(tables, n_vars)
        assert packed.shape == (len(tables), words_per_table(n_vars))
        assert unpack_tts(packed) == tables

    @pytest.mark.parametrize("n_vars", [0, 2, 6, 8])
    def test_bit_expansion_round_trips(self, n_vars):
        rng = random.Random(77 + n_vars)
        for tt in _random_tables(rng, n_vars, 30):
            bits = tt_to_bits(tt, n_vars)
            assert bits.shape == (1 << n_vars,)
            assert bits_to_tt(bits) == tt


class TestExpandParity:
    def test_random_var_maps_match_scalar(self):
        rng = random.Random(78)
        for _ in range(150):
            n_from = rng.randint(1, 6)
            # Cover both dispatch arms (scalar below 7 target vars).
            n_to = rng.randint(n_from, 9)
            var_map = [rng.randrange(n_to) for _ in range(n_from)]
            tt = rng.getrandbits(1 << n_from)
            assert expand_tt(tt, var_map, n_from, n_to) == expand_tt_scalar(
                tt, var_map, n_from, n_to
            )

    def test_duplicate_targets_and_constants(self):
        # Two source inputs on one target variable: f(a, a) semantics.
        assert expand_tt(0b1000, [3, 3], 2, 7) == expand_tt_scalar(
            0b1000, [3, 3], 2, 7
        )
        ones = full_mask(3)
        assert expand_tt(ones, [0, 1, 2], 3, 8) == full_mask(8)
        assert expand_tt(0, [0, 1, 2], 3, 8) == 0

    def test_length_mismatch_rejected_on_both_arms(self):
        with pytest.raises(TruthTableError):
            expand_tt(0b10, [0, 1], 1, 8)
        with pytest.raises(TruthTableError):
            expand_tt(0b10, [0, 1], 1, 3)


# ----------------------------------------------------------------------
# Batched cone truths: shared-rank loop vs per-cone cone_truth
# ----------------------------------------------------------------------


def _graph_cones(g: AIG, max_leaves: int = 10):
    cones = []
    for node in g.and_ids():
        cut = reconv_cut(g, node, max_leaves, collect_features=False)
        if cut.n_leaves < 1:
            continue
        cones.append((node, tuple(cut.leaves), frozenset(cut.interior)))
    return cones


class TestBatchConeParity:
    def test_both_routes_match_cone_truth_on_random_graphs(self):
        for seed in (3, 9, 21):
            g = random_aig(10, 250, 6, seed=seed)
            cones = _graph_cones(g)
            assert len(cones) > 15
            expected = [cone_truth(g, root, list(leaves)) for root, leaves, _ in cones]
            assert batch_cone_truths(g, cones) == expected

    def test_degenerate_cones(self):
        g = AIG("deg")
        a = g.add_pi()
        b = g.add_pi()
        ab = g.add_and(a, b)
        g.add_po(ab)
        node = ab >> 1
        cones = [
            # Single-leaf cut: the root *is* the only leaf.
            (node, (node,), frozenset()),
            # Duplicate leaves: the later index names the variable.
            (node, (a >> 1, b >> 1, a >> 1), frozenset({node})),
            # Constant-zero root over an empty cut.
            (0, (), frozenset()),
            # Leaf list containing the constant node.
            (node, (0, a >> 1, b >> 1), frozenset({node})),
        ]
        expected = [cone_truth(g, root, list(leaves)) for root, leaves, _ in cones]
        assert batch_cone_truths(g, cones) == expected

    def test_uncovered_cone_raises_on_both_routes(self):
        g = random_aig(6, 40, 2, seed=5)
        node = next(iter(g.and_ids()))
        bad = [(node, (node + 1000,), frozenset({node}))]
        with pytest.raises(TruthTableError):
            batch_cone_truths(g, bad)


# ----------------------------------------------------------------------
# Wave payloads: pack -> shared-memory segment -> rebuild, bit-exact
# ----------------------------------------------------------------------


class TestWavePayloads:
    def test_packed_tasks_round_trip_mixed_widths(self):
        rng = random.Random(79)
        tasks = [(0, 1), (full_mask(4), 4)]  # constants ride along
        tasks += [
            (rng.getrandbits(1 << n) & full_mask(n), n)
            for n in (rng.randint(1, 10) for _ in range(300))
        ]
        packed = PackedTasks.pack(tasks)
        assert packed.n_tasks == len(tasks)
        assert packed.tasks() == tasks
        # Range slicing rebuilds exactly the requested window.
        assert packed.tasks(5, 12) == tasks[5:12]

    def test_empty_wave(self):
        packed = PackedTasks.pack([])
        assert packed.n_tasks == 0
        assert packed.tasks() == []

    def test_segment_round_trip_and_lifecycle(self):
        before = leaked_segments()
        rng = random.Random(80)
        tasks = [
            (rng.getrandbits(1 << n) & full_mask(n), n)
            for n in (rng.randint(1, 8) for _ in range(120))
        ]
        segment = WaveSegment.create(PackedTasks.pack(tasks))
        try:
            attached = WaveSegment.attach(segment.descriptor())
            try:
                assert attached.packed().tasks() == tasks
                with pytest.raises(ReproError):
                    attached.unlink()  # only the creator may unlink
            finally:
                attached.close()
        finally:
            segment.close()
            segment.unlink()
        assert leaked_segments() == before

    def test_single_task_segment(self):
        before = leaked_segments()
        segment = WaveSegment.create(PackedTasks.pack([(1, 1)]))
        try:
            assert segment.packed().tasks() == [(1, 1)]
        finally:
            segment.close()
            segment.unlink()
        assert leaked_segments() == before
