"""Path-enumeration oracle tests.

The enumeration is deliberately naive: it never touches the amplitude
recursion it is meant to check.  Entry [n - 1][r, c] of the oracle's
stack is the sum over n-step paths from v[c] to v[r] with every
intermediate state outside v.  The oracle walks sites of block_dim
indices; the scalar pass over single coordinates (helpers) is its
reference.
"""

import ast
import itertools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from cmvkit.catalog import coined_walk_six, diffusion_center_schur, double_diffusion_six
from cmvkit.cmv import (
    FAMILIES,
    HESSENBERG_FAMILIES,
    BlockOperatorSpec,
    block_subspace,
    build,
    window_spec,
)
from cmvkit.pathcount import N_CAP, PRUNE_FLOOR, oracle_first_return
from cmvkit.schur import random_parameters, random_unitary
from cmvkit.spectral import first_return_amplitudes
from helpers import embed, scalar_first_return


def _per_length(u, v, n):
    """The n-step amplitude alone, by the per-length enumeration the
    one-pass oracle replaced: same successor lists and pruning, and the
    same depth-first order, so the sums must agree to the bit."""
    entries = u.tolist()
    blocked = set(v)
    interior = [s for s in range(u.shape[0]) if s not in blocked]

    def steps(cur, rows):
        return [(k, entries[s][cur]) for k, s in enumerate(rows)
                if not abs(entries[s][cur]) < PRUNE_FLOOR]

    inner = {s: steps(s, interior) for s in (*v, *interior)}
    ends = {s: steps(s, v) for s in (*v, *interior)}
    out = np.zeros((len(v), len(v)), dtype=np.complex128)

    def extend(c, cur, remaining, amp):
        if remaining == 1:
            for r, step in ends[cur]:
                out[r, c] += step * amp
            return
        for k, step in inner[cur]:
            extend(c, interior[k], remaining - 1, amp * step)

    for c, s in enumerate(v):
        extend(c, s, n, 1.0 + 0.0j)
    return out


def _brute_force(u, v, horizon):
    """Every index path spelled out with itertools, no pruning."""
    interior = [s for s in range(u.shape[0]) if s not in set(v)]
    out = np.zeros((horizon, len(v), len(v)), dtype=np.complex128)
    for n in range(1, horizon + 1):
        for mid in itertools.product(interior, repeat=n - 1):
            for c, s in enumerate(v):
                for r, t in enumerate(v):
                    path = (s, *mid, t)
                    amp = 1.0 + 0.0j
                    for a, b in zip(path, path[1:]):
                        amp = u[b, a] * amp
                    out[n - 1, r, c] += amp
    return out


class TestPathAmplitudeSum:
    def test_single_step_is_the_entry(self, rng):
        u = random_unitary(5, rng)
        a = oracle_first_return(u, (3, 1), 1)
        assert abs(a[0][1, 0] - u[1, 3]) < 1e-15

    def test_no_intermediate_room_gives_zero(self, rng):
        u = random_unitary(4, rng)
        a = oracle_first_return(u, (0, 1, 2, 3), 2)
        assert a[1][1, 0] == 0
        assert not a[1].any()

    def test_two_step_sum_over_allowed_midpoints(self, rng):
        u = random_unitary(6, rng)
        a = oracle_first_return(u, (0, 2), 2)
        want = sum(u[2, m] * u[m, 0] for m in (1, 3, 4, 5))
        assert abs(a[1][1, 0] - want) < 1e-14

    def test_endpoints_may_sit_inside_the_avoided_set(self, rng):
        u = random_unitary(4, rng)
        a = oracle_first_return(u, (2,), 1)
        assert abs(a[0][0, 0] - u[2, 2]) < 1e-15

    def test_block_steps_multiply_later_on_the_left(self, rng):
        # blocks 0 and 2 of a 2 x 2 block matrix span v; block 1 is the
        # only way through, so the two-step amplitude is one block product
        d = 2
        u = random_unitary(6, rng)

        def block(r, c):
            return u[r * d : (r + 1) * d, c * d : (c + 1) * d]

        a = oracle_first_return(u, (0, 1, 4, 5), 2)
        want = block(2, 1) @ block(1, 0)
        assert np.abs(a[1][2:, :2] - want).max() < 1e-14

    def test_length_bounds(self, rng):
        u = random_unitary(3, rng)
        for horizon in (0, N_CAP + 1):
            with pytest.raises(ValueError, match=f"horizon {horizon} outside 1..{N_CAP}"):
                oracle_first_return(u, (0, 1), horizon)
        assert oracle_first_return(u, (0, 1), N_CAP).shape == (N_CAP, 2, 2)

    def test_state_bounds(self, rng):
        u = random_unitary(3, rng)
        with pytest.raises(ValueError):
            oracle_first_return(u, (0, 3), 1)


class TestSplitDiagrams:
    def test_walk_loop_starts_with_the_right_factor_step(self):
        # one-step loop at the overlap state: the product of the two
        # factor steps through it, b on the left factor times d on the
        # right, equals the loop amplitude on the full walk
        fact = coined_walk_six()
        u = fact.product()
        lc = embed(fact.u_lc, fact.partition.lc, 6)
        cr = embed(fact.u_cr, fact.partition.cr, 6)
        loop = oracle_first_return(u, (2,), 1)[0][0, 0]
        left = oracle_first_return(lc, (2,), 1)[0][0, 0]
        right = oracle_first_return(cr, (2,), 1)[0][0, 0]
        assert abs(left * right - loop) < 1e-14
        assert abs(loop - 0.5) < 1e-14

    def test_two_step_loops_split_through_the_factors(self):
        # a length-2 first-return loop decomposes as one step in each
        # factor diagram joined at an intermediate state
        fact = coined_walk_six()
        u = fact.product()
        lc = embed(fact.u_lc, fact.partition.lc, 6)
        cr = embed(fact.u_cr, fact.partition.cr, 6)
        loop = oracle_first_return(u, (2,), 2)[1][0, 0]
        byparts = sum(
            sum(lc[2, i] * cr[i, m] for i in range(6))
            * sum(lc[m, i] * cr[i, 2] for i in range(6))
            for m in range(6)
            if m != 2
        )
        assert abs(loop - byparts) < 1e-13


class TestOracleFirstReturn:
    @pytest.mark.parametrize("bad", [True, 2.0, "2"])
    def test_horizon_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match=f"^horizon must be an integer, got {bad!r}"):
            oracle_first_return(np.eye(3), (0,), bad)

    def test_identity_case(self):
        a = oracle_first_return(np.eye(5), (1, 3), 3)
        assert np.abs(a[0] - np.eye(2)).max() < 1e-15
        assert np.abs(a[1:]).max() < 1e-15

    def test_diffusion_first_amplitude_is_one_sixth(self):
        cat = double_diffusion_six()
        a1 = oracle_first_return(cat.product(), cat.partition.center, 1)[0]
        assert abs(a1[0, 0] - 1.0 / 6.0) < 1e-14
        assert abs(a1[0, 0] - diffusion_center_schur(0).coeff(0)[0, 0]) < 1e-14

    def test_matches_operator_route_on_random_unitary(self, rng):
        u = random_unitary(6, rng)
        v = (0, 4)
        want = first_return_amplitudes(u, v, 5)
        assert np.abs(oracle_first_return(u, v, 5) - want).max() < 1e-10

    def test_block_paths_match_block_amplitudes(self, rng):
        d = 2
        p = random_parameters(d, 9, rng)
        u = build(BlockOperatorSpec(p, "C", 9))
        want = first_return_amplitudes(u, (4, 5), 4)
        assert np.abs(oracle_first_return(u, (4, 5), 4) - want).max() < 1e-10


class TestOnePass:
    @pytest.mark.parametrize("d", [1, 2])
    def test_stack_equals_the_per_length_enumeration(self, d, rng):
        p = random_parameters(d, 16, rng)
        for family in ("C", "Chat"):
            for j in range(4):
                for horizon in range(1, 7):
                    spec = window_spec(p, family, j, horizon - 1)
                    u = build(spec)
                    v = block_subspace(spec, [j])
                    got = scalar_first_return(u, v, horizon)
                    want = np.stack([_per_length(u, v, n) for n in range(1, horizon + 1)])
                    assert np.array_equal(got, want), (family, j, horizon)

    def test_dense_stack_equals_the_per_length_enumeration(self, rng):
        for v in [(0,), (5, 2), (1, 3, 4)]:
            u = random_unitary(6, rng)
            got = scalar_first_return(u, v, 6)
            want = np.stack([_per_length(u, v, n) for n in range(1, 7)])
            assert np.array_equal(got, want), v

    def test_brute_force_path_sums(self, rng):
        d = 2
        spec = window_spec(random_parameters(d, 12, rng), "Chat", 1, 4)
        u = build(spec)
        v = block_subspace(spec, [1])
        assert np.abs(scalar_first_return(u, v, 5) - _brute_force(u, v, 5)).max() < 1e-13
        u = random_unitary(6, rng)
        for v, horizon in [((3,), 4), ((4, 1), N_CAP)]:
            got = scalar_first_return(u, v, horizon)
            assert np.abs(got - _brute_force(u, v, horizon)).max() < 1e-13, v


def _scalar_steps(u, v, horizon):
    """Steps the scalar pass takes: the walks out of v that stay outside it
    in between, of every length up to the horizon."""
    live = (np.abs(u) >= PRUNE_FLOOR).astype(float)
    at = np.zeros(len(u))
    at[list(v)] = 1.0
    total = 0.0
    for _ in range(horizon):
        at = live @ at
        total += at.sum()
        at[list(v)] = 0.0
    return total


class TestSitePaths:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 4),
           family=st.sampled_from(FAMILIES), j=st.integers(0, 5),
           horizon=st.integers(1, N_CAP), terminal=st.booleans(), extra=st.integers(0, 2))
    @example(seed=0, d=4, family="C", j=2, horizon=4, terminal=False, extra=0)
    @example(seed=1, d=4, family="Hhat", j=0, horizon=3, terminal=True, extra=0)
    @example(seed=2, d=3, family="H", j=5, horizon=N_CAP, terminal=True, extra=2)
    def test_site_paths_match_the_scalar_pass_and_the_operator(
            self, seed, d, family, j, horizon, terminal, extra):
        # Hessenberg matrices are built on terminal sequences only; the
        # scalar pass is run where its coordinate walks stay affordable
        rng = np.random.default_rng(seed)
        terminal = terminal or family in HESSENBERG_FAMILIES
        length = j + extra if terminal else j + horizon + 2
        p = random_parameters(d, length, rng, terminal=terminal)
        spec = window_spec(p, family, j, horizon - 1)
        u = build(spec)
        v = block_subspace(spec, [j])
        got = oracle_first_return(u, v, horizon, d)
        assert got.shape == (horizon, d, d)
        assert np.abs(got - first_return_amplitudes(u, v, horizon)).max() <= 1e-14
        if _scalar_steps(u, v, horizon) <= 1e5:
            event(f"scalar pass compared at d = {d}")
            assert np.abs(got - scalar_first_return(u, v, horizon)).max() <= 1e-14

    def test_coordinates_follow_the_order_of_v(self, rng):
        u = random_unitary(8, rng)
        for v in [(5, 4), (2, 3, 7, 6), (7, 6, 0, 1)]:
            got = oracle_first_return(u, v, 5, 2)
            assert np.abs(got - first_return_amplitudes(u, v, 5)).max() <= 1e-14, v

    @pytest.mark.parametrize("v, block_dim", [((0,), 2), ((0, 3), 2), ((1, 2), 2), ((0, 1, 2), 2),
                                              ((2, 3, 4), 3), ((0, 1), 4)])
    def test_v_must_be_a_union_of_whole_sites(self, rng, v, block_dim):
        u = random_unitary(8 if block_dim != 3 else 9, rng)
        with pytest.raises(ValueError, match="union of whole sites"):
            oracle_first_return(u, v, 2, block_dim)

    @pytest.mark.parametrize("block_dim", [0, -2, 4, 2.0])
    def test_block_dim_must_divide_the_dimension(self, rng, block_dim):
        with pytest.raises(ValueError, match="block_dim"):
            oracle_first_return(random_unitary(6, rng), (0, 1), 2, block_dim)

    def test_dense_unitary_at_the_cap_stays_in_bounded_memory(self, rng):
        # 11**7, about 1.9e7, live paths at the last depth: about 300 MB as
        # one frontier, while the depth-first pieces stay below 32 MiB
        u = random_unitary(12, rng)
        tracemalloc.start()
        try:
            got = oracle_first_return(u, (0,), N_CAP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20, peak
        assert np.abs(got - first_return_amplitudes(u, (0,), N_CAP)).max() <= 1e-12

    def test_pathcount_imports_nothing_from_spectral(self):
        # the oracle and the recursion it checks share nothing: follow every
        # import inside the package from pathcount
        package = Path(oracle_first_return.__code__.co_filename).parent
        seen, todo = set(), ["pathcount"]
        while todo:
            name = todo.pop()
            seen.add(name)
            tree = ast.parse((package / f"{name}.py").read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    todo += [node.module] if node.module not in seen else []
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [a.name for a in node.names] + [getattr(node, "module", "") or ""]
                    assert not any("cmvkit" in n for n in names), (name, names)
        assert "spectral" not in seen, seen
