import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from regpack.errors import NoMatching, SideMismatch, SwitchIneligible, TooLarge
from regpack.generators import certified_bipartite_host
from regpack.graphs import BipartiteGraph, iter_bits
from regpack.matching import (
    _CHUNK,
    ExactUniformSampler,
    Matching,
    _adj_bool,
    _chain_python,
    _chain_rows,
    apply_switch,
    count_matchings_exact,
    count_matchings_through,
    default_steps,
    find_perfect_matching,
    hall_witness,
    matching_diagnostics,
    sample_switch_chain,
    sample_switch_chain_many,
)


def complete_bipartite(n):
    return BipartiteGraph(n, n, [(u, v) for u in range(n) for v in range(n)])


def cycle6():
    # C_6 as a bipartite 3+3 graph
    return BipartiteGraph(3, 3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)])


def brute_force_count(B):
    n = B.nl
    return sum(
        1 for perm in itertools.permutations(range(n))
        if all(B.has_edge(u, perm[u]) for u in range(n))
    )


class TestFindPerfectMatching:
    def test_complete(self):
        m = find_perfect_matching(complete_bipartite(3))
        m.check(complete_bipartite(3))

    def test_hall_violation(self):
        B = BipartiteGraph(4, 4, [(0, 0), (1, 0), (2, 0), (3, 1), (3, 2)])
        assert find_perfect_matching(B) is None
        assert hall_witness(B) == (0b0111, 0b0001)

    def test_seeded_random(self):
        rng = random.Random(0)
        B = BipartiteGraph(50, 50)
        for u in range(50):
            for v in range(50):
                if rng.random() < 0.3:
                    B.add_edge(u, v)
        m = find_perfect_matching(B)
        assert m is not None
        m.check(B)

    def test_side_mismatch(self):
        with pytest.raises(SideMismatch):
            find_perfect_matching(BipartiteGraph(2, 3))
        with pytest.raises(SideMismatch):
            hall_witness(BipartiteGraph(2, 3))


def reference_hopcroft_karp(B):
    """Hopcroft-Karp walking every row bit by bit, as ``find_perfect_matching``
    ran before its mask kernel; kept as the reference for that kernel."""
    n = B.nl
    if n == 0:
        return Matching([])
    INF = n + 1
    pair_l = [-1] * n
    pair_r = [-1] * n
    dist = [0] * n

    def bfs() -> bool:
        queue = []
        for u in range(n):
            if pair_l[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in iter_bits(B.adj[u]):
                w = pair_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in iter_bits(B.adj[u]):
            w = pair_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_l[u] = v
                pair_r[v] = u
                return True
        dist[u] = INF
        return False

    matched = 0
    while bfs():
        for u in range(n):
            if pair_l[u] == -1 and dfs(u):
                matched += 1
    if matched != n:
        return None
    return Matching(pair_l)


@st.composite
def _hk_cases(draw):
    """Random n x n graphs up to 64 a side: sparse ones, which often have no
    perfect matching, dense ones, and ones with a planted perfect matching."""
    n = draw(st.integers(0, 64))
    p = draw(st.sampled_from([0.02, 0.05, 0.1, 0.3, 0.6, 0.95]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    perm = list(range(n))
    rng.shuffle(perm)
    planted = draw(st.booleans())
    return BipartiteGraph(n, n, [(u, v) for u in range(n) for v in range(n)
                                 if (planted and v == perm[u]) or rng.random() < p])


def _union_of_rows(B, S):
    out = 0
    for u in iter_bits(S):
        out |= B.adj[u]
    return out


@given(_hk_cases())
@settings(max_examples=300, deadline=None)
def test_mask_hopcroft_karp_matches_reference(B):
    got, ref = find_perfect_matching(B), reference_hopcroft_karp(B)
    assert got == ref
    witness = hall_witness(B)
    if ref is None:
        S, NS = witness
        assert NS == _union_of_rows(B, S)
        assert NS.bit_count() < S.bit_count()
    else:
        assert witness is None


class TestExactCount:
    def test_complete_factorial(self):
        assert count_matchings_exact(complete_bipartite(5)) == math.factorial(5)

    def test_cycle_has_two(self):
        assert count_matchings_exact(cycle6()) == 2

    def test_seeded_matches_bruteforce(self):
        rng = random.Random(4)
        B = BipartiteGraph(10, 10)
        for u in range(10):
            for v in range(10):
                if rng.random() < 0.6:
                    B.add_edge(u, v)
        assert count_matchings_exact(B) == brute_force_count(B)

    def test_cap(self):
        with pytest.raises(TooLarge):
            count_matchings_exact(BipartiteGraph(25, 25))

    def test_edge_counts_sum(self):
        B = cycle6()
        total = count_matchings_exact(B)
        for u in range(3):
            assert sum(count_matchings_through(B, u, v) for v in range(3)) == total


class TestExactSampler:
    def test_k22_balanced(self):
        B = complete_bipartite(2)
        rng = random.Random(1)
        hits = sum(1 for _ in range(10_000) if ExactUniformSampler(B).sample(rng).sigma == [0, 1])
        # 3-sigma band around 1/2
        sigma = math.sqrt(0.25 / 10_000)
        assert abs(hits / 10_000 - 0.5) < 3 * sigma + 1e-12

    def test_unique_matching(self):
        B = BipartiteGraph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)])
        assert count_matchings_exact(B) == 1
        for s in range(5):
            assert ExactUniformSampler(B).sample(random.Random(s)).sigma == [0, 1, 2]

    def test_cycle_balanced(self):
        B = cycle6()
        rng = random.Random(2)
        sampler = ExactUniformSampler(B)
        hits = sum(1 for _ in range(4000) if sampler.sample(rng).sigma == [0, 1, 2])
        assert abs(hits / 4000 - 0.5) < 0.03

    def test_no_matching(self):
        B = BipartiteGraph(2, 2, [(0, 0), (1, 0)])
        with pytest.raises(NoMatching):
            ExactUniformSampler(B).sample(random.Random(0))

    def test_chi_square_uniformity(self):
        # |M| = 24 on K_{4,4}; 1e5 exact samples must fit uniform at p > 0.01
        B = complete_bipartite(4)
        sampler = ExactUniformSampler(B)
        assert sampler.total() == 24
        rng = random.Random(7)
        counts: dict[tuple, int] = {}
        N = 100_000
        for _ in range(N):
            key = sampler.sample(rng).as_tuple()
            counts[key] = counts.get(key, 0) + 1
        observed = [counts.get(key, 0) for key in
                    (tuple(p) for p in itertools.permutations(range(4)))]
        chi2, p = stats.chisquare(observed)
        assert p > 0.01


class TestSwitch:
    def test_k33_rotation(self):
        B = complete_bipartite(3)
        sigma = Matching([0, 1, 2])
        out = apply_switch(B, sigma, 0, 1, 2)
        assert out.sigma == [2, 0, 1]
        out.check(B)

    def test_ineligible_on_cycle(self):
        B = cycle6()
        sigma = Matching([0, 1, 2])
        with pytest.raises(SwitchIneligible):
            apply_switch(B, sigma, 0, 1, 2)  # needs edge (1, sigma(0)) = (1,0), absent

    def test_inverse_rotation_recovers(self):
        rng = random.Random(3)
        for _ in range(50):
            B = BipartiteGraph(6, 6)
            for u in range(6):
                for v in range(6):
                    if rng.random() < 0.8:
                        B.add_edge(u, v)
            m = find_perfect_matching(B)
            if m is None:
                continue
            triple = rng.sample(range(6), 3)
            try:
                fwd = apply_switch(B, m, *triple)
            except SwitchIneligible:
                continue
            back = apply_switch(B, fwd, triple[0], triple[2], triple[1])
            assert back.sigma == m.sigma


class TestSwitchChain:
    def test_zero_steps_returns_start(self):
        B = complete_bipartite(5)
        start = find_perfect_matching(B)
        out = sample_switch_chain(B, 0, random.Random(0))
        assert out.sigma == start.sigma

    def test_k44_edge_frequencies(self):
        B = complete_bipartite(4)
        rng = random.Random(11)
        draws = sample_switch_chain_many(B, 10_000, default_steps(4), rng)
        for u in range(4):
            for v in range(4):
                freq = sum(1 for s in draws if s[u] == v) / len(draws)
                assert abs(freq - 0.25) < 0.02

    def test_validity_preserved(self):
        B = certified_bipartite_host(12, 0.7, 0.05, random.Random(5))
        out = sample_switch_chain(B, 2000, random.Random(6))
        out.check(B)

    def test_deterministic_per_seed(self):
        B = certified_bipartite_host(12, 0.7, 0.05, random.Random(5))
        a = sample_switch_chain(B, 500, random.Random(9)).sigma
        b = sample_switch_chain(B, 500, random.Random(9)).sigma
        assert a == b


def _planted_host(n, p, seed):
    """A random bipartite graph with the perfect matching u -> perm[u] planted."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    B = BipartiteGraph(n, n, [(u, v) for u in range(n) for v in range(n)
                              if v == perm[u] or rng.random() < p])
    return B, perm


@st.composite
def _chain_cases(draw):
    n = draw(st.integers(3, 70))
    B, perm = _planted_host(n, draw(st.floats(0.3, 1.0)), draw(st.integers(0, 2**32)))
    count = draw(st.integers(1, 400))
    trips = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, n, size=(count, 3))
    # Repeated vertices must hold the state, whichever two positions repeat.
    for t in draw(st.lists(st.integers(0, count - 1), max_size=count // 4)):
        i, j = draw(st.sampled_from([(0, 1), (1, 2), (0, 2)]))
        trips[t, j] = trips[t, i]
    return B, perm, trips


@given(_chain_cases())
@settings(max_examples=150, deadline=None)
def test_chain_rows_matches_bool_matrix_kernel(case):
    B, perm, trips = case
    ref = np.array(perm, dtype=np.int64)
    _chain_python(_adj_bool(B), ref, trips)
    sigma = list(perm)
    _chain_rows(B.adj, sigma, trips)
    assert sigma == ref.tolist()
    Matching(sigma).check(B)


def _bool_matrix_steps(adj, sigma, steps, gen):
    """``steps`` proposals of ``_chain_python`` in ``_CHUNK`` chunks."""
    done = 0
    while done < steps:
        chunk = min(_CHUNK, steps - done)
        _chain_python(adj, sigma, gen.integers(0, len(adj), size=(chunk, 3), dtype=np.int64))
        done += chunk


def _bool_matrix_chain(B, steps, rng):
    """``sample_switch_chain`` as it ran on the bool matrix, kept as reference."""
    start = find_perfect_matching(B)
    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(63)))
    sigma = np.array(start.sigma, dtype=np.int64)
    _bool_matrix_steps(_adj_bool(B), sigma, steps, gen)
    return Matching([int(x) for x in sigma])


def _bool_matrix_many(B, samples, steps, rng):
    """``sample_switch_chain_many`` written out: one generator, and a fresh
    copy of the Hopcroft-Karp start for each sample."""
    start = find_perfect_matching(B)
    gen = np.random.Generator(np.random.PCG64(rng.getrandbits(63)))
    adj = _adj_bool(B)
    out = []
    for _ in range(samples):
        sigma = np.array(start.sigma, dtype=np.int64)
        _bool_matrix_steps(adj, sigma, steps, gen)
        out.append(tuple(int(x) for x in sigma))
    return out


@pytest.mark.parametrize("n,p,steps,seed", [(3, 1.0, 50, 0), (12, 0.6, 2000, 1),
                                            (30, 0.6, _CHUNK + 777, 2), (70, 0.6, 5000, 3)])
def test_switch_chain_matches_bool_matrix_path(n, p, steps, seed):
    B, _ = _planted_host(n, p, seed)
    got = sample_switch_chain(B, steps, random.Random(seed))
    assert got == _bool_matrix_chain(B, steps, random.Random(seed))
    assert got != find_perfect_matching(B)


@pytest.mark.parametrize("n,samples,steps,seed", [(3, 5, 50, 0), (12, 20, 2000, 1),
                                                  (30, 3, _CHUNK + 777, 2)])
def test_switch_chain_many_matches_reference_loop(n, samples, steps, seed):
    B, _ = _planted_host(n, 1.0 if n == 3 else 0.6, seed)
    got = sample_switch_chain_many(B, samples, steps, random.Random(seed))
    assert got == _bool_matrix_many(B, samples, steps, random.Random(seed))
    assert len(set(got)) > 1


class TestDiagnostics:
    def test_knn_symmetry(self):
        B = complete_bipartite(5)
        st_ = matching_diagnostics(B, "exact", 4000, random.Random(0))
        n = 5
        sigma = math.sqrt((1 / n) * (1 - 1 / n) / 4000)
        for (u, v), f in st_.edge_frequencies.items():
            assert abs(f - 1 / n) < 4 * sigma
        total = sum(st_.edge_frequencies.values())
        assert total == pytest.approx(n)

    def test_m1_statistic_against_exact(self):
        # P[sigma(u) in S] ~ |S| / (d n) for S inside N(u)
        B = certified_bipartite_host(12, 0.7, 0.05, random.Random(3))
        u = 0
        nbrs = [v for v in range(12) if B.has_edge(u, v)]
        S = nbrs[:4]
        sampler, rng = ExactUniformSampler(B), random.Random(2)
        hit = sum(sampler.sample(rng).sigma[u] in S for _ in range(10_000)) / 10_000
        total = count_matchings_exact(B)
        exact = sum(count_matchings_through(B, u, v) for v in S) / total
        assert abs(hit - exact) < 0.02
        assert abs(hit - len(S) / (0.7 * 12)) < 0.15 * len(S) / (0.7 * 12)


class TestTheorem42Bounds:
    @pytest.mark.parametrize("n,d", [(10, 0.6), (12, 0.7), (14, 0.65)])
    def test_count_bounds_on_certified_instances(self, n, d):
        eps = 0.05
        B = certified_bipartite_host(n, d, eps, random.Random(n))
        cnt = count_matchings_exact(B)
        lo = (d - 2 * eps) ** n * math.factorial(n)
        hi = (d + 2 * eps) ** n * math.factorial(n)
        assert lo <= cnt <= hi
