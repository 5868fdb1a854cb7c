import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mlds.estimator
from mlds import (
    DEFAULT_PARAMS, ParamSet,
    LweInstance, EstimatorError, bkz_delta, primal_cost, dual_cost, key_sizes,
)
from mlds.estimator import (
    CLASSICAL_EXP, MIN_BLOCK, QUANTUM_EXP, SIEVE_VECTORS_EXP, AttackEstimate, _dual_log2_rep,
    _log_delta,
)


@pytest.fixture(scope="module")
def reference_instance():
    return LweInstance.from_binomial(n_lwe=1024, q=12289, eta=16, max_samples=2048)


def test_bkz_delta_monotone_decreasing():
    values = [bkz_delta(b) for b in range(50, 1001)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_bkz_delta_known_value():
    # direct evaluation of the closed form at b=380
    assert abs(bkz_delta(380) - 1.00413) < 2e-4


def test_bkz_delta_rejects_small_blocks():
    with pytest.raises(EstimatorError):
        bkz_delta(10)
    with pytest.raises(EstimatorError):
        bkz_delta(49)


def test_instance_construction():
    inst = LweInstance.from_binomial(512, 12289, 16)
    assert inst.sigma == math.sqrt(8)
    assert inst.max_samples == 1024
    with pytest.raises(EstimatorError):
        LweInstance(n_lwe=0, q=12289, sigma=1.0, max_samples=10)
    with pytest.raises(EstimatorError):
        LweInstance.from_binomial(512, 12289, 0)


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0])
def test_instance_rejects_non_finite_or_negative_sigma(sigma):
    with pytest.raises(EstimatorError, match="invalid LWE instance"):
        LweInstance(n_lwe=64, q=12289, sigma=sigma, max_samples=128)


def test_primal_reproduces_reference_row(reference_instance):
    est = primal_cost(reference_instance)
    assert abs(est.b - 967) <= 2
    assert abs(est.classical_bits - 282) <= 1
    assert abs(est.quantum_bits - 256) <= 1
    # frozen regression point for this grid
    assert (est.m, est.b, est.classical_bits, est.quantum_bits) == (1112, 968, 282, 256)


def test_dual_reproduces_reference_row(reference_instance):
    est = dual_cost(reference_instance)
    assert abs(est.b - 962) <= 2
    assert abs(est.classical_bits - 281) <= 1
    assert abs(est.quantum_bits - 255) <= 1
    assert (est.m, est.b, est.classical_bits, est.quantum_bits) == (1100, 962, 280, 254)


def test_reported_bits_are_floored(reference_instance):
    est = primal_cost(reference_instance)
    assert est.classical_bits == math.floor(0.292 * est.b)
    assert est.quantum_bits == math.floor(0.265 * est.b)


def test_dual_close_to_primal(reference_instance):
    assert dual_cost(reference_instance).classical_bits <= primal_cost(reference_instance).classical_bits + 2


def test_module_secret_dimension_also_reported():
    inst = LweInstance.from_binomial(512, 12289, 16, 1024)
    est = primal_cost(inst)
    assert (est.m, est.b) == (575, 425)
    assert est.classical_bits == math.floor(0.292 * 425)


@pytest.mark.parametrize("attack", [primal_cost, dual_cost])
def test_cost_monotone_in_sigma_and_dimension(attack):
    # 3x3 grid: non-decreasing in sigma and in n_lwe
    grid = {}
    for n_lwe in (256, 512, 1024):
        for mult in (1.0, 2.0, 4.0):
            inst = LweInstance(n_lwe=n_lwe, q=12289, sigma=math.sqrt(8) * mult,
                               max_samples=2 * n_lwe)
            grid[n_lwe, mult] = attack(inst).classical_bits
    for n_lwe in (256, 512, 1024):
        assert grid[n_lwe, 1.0] <= grid[n_lwe, 2.0] <= grid[n_lwe, 4.0]
    for mult in (1.0, 2.0, 4.0):
        assert grid[256, mult] <= grid[512, mult] <= grid[1024, mult]


def test_primal_block_strictly_grows_with_sigma():
    small = primal_cost(LweInstance(n_lwe=1024, q=12289, sigma=math.sqrt(8), max_samples=2048))
    big = primal_cost(LweInstance(n_lwe=1024, q=12289, sigma=2 * math.sqrt(8), max_samples=2048))
    assert big.b > small.b


def dual_repetitions_log2(inst: LweInstance, m: int, b: int) -> float:
    """Scalar oracle for log2 of the dual repetition count R at one (m, b) cell, via bkz_delta."""
    d = inst.n_lwe + m
    log2_ell = d * math.log2(bkz_delta(b)) + (inst.n_lwe / d) * math.log2(inst.q)
    tau = 2.0 ** (log2_ell + math.log2(inst.sigma / inst.q))
    log2_eps = -2 * math.pi**2 * tau * tau / math.log(2)
    return max(0.0, -2 * log2_eps - SIEVE_VECTORS_EXP * b)


def test_dual_repetitions_monotone_in_b(reference_instance):
    b = np.arange(50, 1200, 10)
    reps = _dual_log2_rep(reference_instance, np.full(b.shape, 1100), b)
    oracle = np.array([dual_repetitions_log2(reference_instance, 1100, int(x)) for x in b])
    # the grid clamps tau at 2^30, which binds only where R is astronomical (b = 50 here)
    cap = 4 * math.pi**2 * 2.0**60 / math.log(2) - SIEVE_VECTORS_EXP * b
    assert np.count_nonzero(oracle > cap) == 1
    np.testing.assert_allclose(reps, np.minimum(oracle, cap), rtol=1e-9)
    assert np.array_equal(reps == 0, oracle == 0)
    assert all(a >= b for a, b in zip(reps, reps[1:]))
    assert reps[0] > 0  # small blocks need astronomically many repetitions
    assert reps[-1] == 0.0


# -- the grid search against an exhaustive sweep -----------------------------------

def reference_search(inst: LweInstance, kind: str) -> AttackEstimate:
    """Sweep every (m, b) cell in chunks of 256 m; lexicographic (cost, b, m) minimum."""
    b = np.arange(MIN_BLOCK, inst.n_lwe + inst.max_samples + 2)
    log_delta = _log_delta(b)
    best = None
    for m_lo in range(1, inst.max_samples + 1, 256):
        m = np.arange(m_lo, min(m_lo + 256, inst.max_samples + 1))
        if kind == "primal":
            d = (inst.n_lwe + m + 1)[:, None]
            rhs = (2 * b[None, :] - d - 1) * log_delta[None, :] + (m[:, None] / d) * math.log(inst.q)
            log_sb = math.log(inst.sigma) + 0.5 * np.log(b)
            feasible = (log_sb[None, :] <= rhs) & (b[None, :] <= d)
            cost = np.where(feasible, CLASSICAL_EXP * b[None, :], np.inf)
        else:
            d = (inst.n_lwe + m)[:, None].astype(np.float64)
            log2_ell = d * (log_delta / math.log(2))[None, :] + (inst.n_lwe / d) * math.log2(inst.q)
            tau = 2.0 ** np.minimum(log2_ell + math.log2(inst.sigma / inst.q), 30.0)
            log2_eps = -2 * math.pi**2 * tau * tau / math.log(2)
            log2_rep = np.maximum(0.0, -2 * log2_eps - SIEVE_VECTORS_EXP * b[None, :])
            cost = np.where(b[None, :] <= d, CLASSICAL_EXP * b[None, :] + log2_rep, np.inf)
        finite = np.isfinite(cost)
        if finite.any():
            lo = cost[finite].min()
            rows, cols = np.nonzero(cost == lo)
            first = np.lexsort((m[rows], b[cols]))[0]  # smallest b, then smallest m
            cand = (lo, int(b[cols[first]]), int(m[rows[first]]))
            best = cand if best is None or cand < best else best
    if best is None:
        raise EstimatorError(f"no finite {kind} cell")
    _, b_opt, m_opt = best
    rep = dual_repetitions_log2(inst, m_opt, b_opt) if kind == "dual" else 0.0
    return AttackEstimate(kind, m_opt, b_opt, math.floor(CLASSICAL_EXP * b_opt + rep),
                          math.floor(QUANTUM_EXP * b_opt + rep))


def _outcome(search, inst: LweInstance):
    try:
        return search(inst)
    except ValueError as exc:  # EstimatorError, or numpy's on an empty reduction
        return type(exc)


def _assert_matches_reference(inst: LweInstance) -> None:
    for attack, kind in ((primal_cost, "primal"), (dual_cost, "dual")):
        assert _outcome(attack, inst) == _outcome(lambda i: reference_search(i, kind), inst)


@settings(max_examples=200, deadline=None)
@given(n_lwe=st.integers(1, 300), max_samples=st.integers(1, 600),
       q=st.sampled_from([257, 3329, 12289, 65537]), sigma=st.floats(0.3, 60))
# the dual optimum is at b = 114, the first column of the second block, where 0.292 b is
# within one bit of the first block's best cost: a stop rule looser by a bit misses it
@example(n_lwe=89, max_samples=239, q=12289, sigma=36.5)
def test_search_matches_full_grid(n_lwe, max_samples, q, sigma):
    _assert_matches_reference(LweInstance(n_lwe=n_lwe, q=q, sigma=sigma, max_samples=max_samples))


def test_empty_block_range_raises_estimator_error():
    # EstimatorError, not the ValueError numpy raises for argmin over an empty block
    empty = LweInstance(n_lwe=10, q=12289, sigma=2.0, max_samples=20)  # no b >= 50 in range
    for attack in (primal_cost, dual_cost):
        with pytest.raises(EstimatorError):
            attack(empty)
    _assert_matches_reference(empty)


@pytest.mark.parametrize("attack", [primal_cost, dual_cost])
def test_search_stops_early_and_counts_every_block(reference_instance, attack, monkeypatch):
    blocks = []
    pick = mlds.estimator._pick

    def counted(cost, m_vals, b_vals, best):
        blocks.append((cost.shape, b_vals.copy()))
        return pick(cost, m_vals, b_vals, best)

    monkeypatch.setattr(mlds.estimator, "_pick", counted)
    est = attack(reference_instance)
    cells = sum(shape[0] * shape[1] for shape, _ in blocks)
    full = 2048 * (1024 + 2048 + 2 - MIN_BLOCK)
    assert cells <= 2048 * 1024 < full
    # every block carries all m, and the evaluated b columns run gap-free from 50
    assert all(shape == (2048, b_vals.size) for shape, b_vals in blocks)
    columns = np.concatenate([b_vals for _, b_vals in blocks])
    assert np.array_equal(columns, np.arange(MIN_BLOCK, MIN_BLOCK + columns.size))
    assert est.b in columns
    assert columns[-1] < est.b + 2 * mlds.estimator.BLOCK_COLS


def test_primal_infeasible_raises():
    # tiny sample budget and huge noise: embedding condition never satisfied
    inst = LweInstance(n_lwe=1024, q=12289, sigma=1e9, max_samples=4)
    with pytest.raises(EstimatorError):
        primal_cost(inst)
    with pytest.raises(EstimatorError):
        reference_search(inst, "primal")


def test_dual_rejects_noise_close_to_uniform():
    # sigma * sqrt(2 pi) >= q: the noise is statistically close to uniform mod
    # q, where the distinguisher model does not apply. Before this check
    # q = 2, eta = 10^6 reported hundreds of millions of bits.
    with pytest.raises(EstimatorError, match="sigma"):
        dual_cost(LweInstance.from_binomial(256, 2, 10**6))
    edge = 12289 / math.sqrt(2 * math.pi)
    with pytest.raises(EstimatorError):
        dual_cost(LweInstance(n_lwe=256, q=12289, sigma=edge, max_samples=512))
    inside = dual_cost(LweInstance(n_lwe=256, q=12289, sigma=0.99 * edge, max_samples=512))
    assert inside.kind == "dual" and inside.classical_bits > 0


def test_estimates_deterministic(reference_instance):
    assert primal_cost(reference_instance) == primal_cost(reference_instance)
    assert dual_cost(reference_instance) == dual_cost(reference_instance)


# -- sizes -------------------------------------------------------------------------

def test_key_sizes_reference_row():
    sizes = key_sizes(DEFAULT_PARAMS)
    assert abs(sizes.pk_it - 901.5) <= 0.5
    assert abs(sizes.sk_it - 869.5) <= 0.5
    assert abs(sizes.sig_it - 1771) <= 0.5
    assert (sizes.pk_wire, sizes.sk_wire, sizes.sig_wire) == (934, 902, 1830)


def test_key_sizes_formula():
    sizes = key_sizes(DEFAULT_PARAMS)
    element = 256 * math.log2(12289) / 8
    assert sizes.pk_it == pytest.approx(32 + 2 * element)
    assert sizes.sk_it == pytest.approx(2 * element)
    assert sizes.sig_it == pytest.approx(4 * element + 32)


def test_key_sizes_degenerate():
    with pytest.raises(EstimatorError):
        key_sizes(ParamSet(k=0))
