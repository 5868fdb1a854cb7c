import hashlib
import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mlds.estimator
from mlds import DEFAULT_PARAMS, LweInstance, EstimatorError, primal_cost, dual_cost
from mlds.estimator import (
    CLASSICAL_EXP, MIN_BLOCK, QUANTUM_EXP, SIEVE_VECTORS_EXP, TAU_CLAMP_LOG2, AttackEstimate,
    _b_table, _dual_log2_rep, _log_delta,
)


@pytest.fixture(scope="module")
def reference_instance():
    return LweInstance.from_binomial(n_lwe=1024, q=12289, eta=16, max_samples=2048)


def bkz_delta(b: int) -> float:
    """Scalar oracle for the root-Hermite factor delta(b) of BKZ; the model holds for b >= 50."""
    if b < MIN_BLOCK:
        raise EstimatorError(f"delta(b) model requires b >= {MIN_BLOCK}, got {b}")
    return ((math.pi * b) ** (1.0 / b) * b / (2 * math.pi * math.e)) ** (1.0 / (2.0 * (b - 1.0)))


def test_bkz_delta_monotone_decreasing():
    values = [bkz_delta(b) for b in range(50, 1001)]
    assert all(a > b for a, b in zip(values, values[1:]))
    # _log_delta is the search's vector form of the same closed form
    log_delta = _log_delta(np.arange(50, 1001))
    assert np.all(np.diff(log_delta) < 0)
    assert np.allclose(log_delta, np.log(values), rtol=1e-12, atol=0)


def test_bkz_delta_known_value():
    # direct evaluation of the closed form at b=380
    assert abs(bkz_delta(380) - 1.00413) < 2e-4
    assert abs(math.exp(_log_delta(np.array([380]))[0]) - 1.00413) < 2e-4


def _check_read_only(column):
    assert column.dtype == np.float64 and not column.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        column[0] = 0.0


def test_log_delta_table_is_bit_identical_and_never_rewritten():
    b, log_delta, _ = _b_table(5000)
    assert np.array_equal(b, np.arange(MIN_BLOCK, 5001))
    # the whole table, then fresh ranges
    for lo, hi in ((MIN_BLOCK, 5000), (MIN_BLOCK, 64), (123, 4321), (999, 5000)):
        rows = slice(lo - MIN_BLOCK, hi - MIN_BLOCK + 1)
        assert np.array_equal(log_delta[rows], _log_delta(np.arange(lo, hi + 1)))
    oracle = np.log([bkz_delta(block) for block in range(MIN_BLOCK, 5001)])
    np.testing.assert_allclose(log_delta, oracle, rtol=1e-12, atol=0)
    _check_read_only(b)
    _check_read_only(log_delta)
    # entry i is b = MIN_BLOCK + i, so a bound below MIN_BLOCK leaves nothing
    assert all(column.size == 0 for column in _b_table(MIN_BLOCK - 1))


def test_half_log_b_table_is_bit_identical_to_the_primal_expression():
    # the primal reads 0.5 ln b from the same cached entry as ln delta
    _, _, half_log_b = _b_table(5000)
    for lo, hi in ((MIN_BLOCK, 5000), (MIN_BLOCK, 64), (123, 4321), (999, 5000)):
        rows = slice(lo - MIN_BLOCK, hi - MIN_BLOCK + 1)
        assert np.array_equal(half_log_b[rows], 0.5 * np.log(np.arange(float(lo), hi + 1.0)))
    _check_read_only(half_log_b)


def test_bkz_delta_rejects_small_blocks(monkeypatch):
    with pytest.raises(EstimatorError):
        bkz_delta(10)
    with pytest.raises(EstimatorError):
        bkz_delta(49)
    # the searches read ln delta(b) only from _b_table, which fills it through
    # _log_delta from b = MIN_BLOCK up; clear the cache so that every fill is seen
    smallest = []

    def logged(b):
        smallest.append(int(np.min(b)))
        return _log_delta(b)

    _b_table.cache_clear()
    monkeypatch.setattr(mlds.estimator, "_log_delta", logged)
    inst = LweInstance.from_binomial(n_lwe=128, q=12289, eta=16)
    primal_cost(inst)
    dual_cost(inst)
    _b_table.cache_clear()  # drop the entry that the logged fill built
    assert smallest == [MIN_BLOCK]


def test_both_attacks_on_one_instance_share_one_table_entry(reference_instance):
    # dual_cost reads ln delta(b_opt) from the search's entry, not from one of its own
    _b_table.cache_clear()
    primal_cost(reference_instance)
    dual_cost(reference_instance)
    assert _b_table.cache_info().currsize == 1


def test_instance_construction():
    inst = LweInstance.from_binomial(512, 12289, 16)
    assert inst.sigma == math.sqrt(8)
    assert inst.max_samples == 1024
    with pytest.raises(EstimatorError):
        LweInstance(n_lwe=0, q=12289, sigma=1.0, max_samples=10)
    with pytest.raises(EstimatorError):
        LweInstance.from_binomial(512, 12289, 0)
    # whole numbers only: at a cap of 10.5 the dual search reported m = 11, beyond the cap
    for n_lwe, q, max_samples in ((60, 257, 10.5), (60.5, 257, 10), (60, 257.0, 10),
                                  (True, 257, 10), (60, 257, True), (np.int64(60), 257, 10)):
        with pytest.raises(EstimatorError, match="must be ints"):
            LweInstance(n_lwe=n_lwe, q=q, sigma=3.0, max_samples=max_samples)
    for eta in (2.5, 2.0, True):
        with pytest.raises(EstimatorError, match="eta must be an int"):
            LweInstance.from_binomial(512, 12289, eta)


# a str or None is no number, 10**400 overflows a float, and True is not 1
@pytest.mark.parametrize("sigma", [math.nan, math.inf, -1.0, "2", None,
                                   pytest.param(10**400, id="10**400"), True])
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


def test_from_params_is_the_instance_a_public_key_gives():
    # P = A^T s + e: k*n secret coefficients, k*n samples, sigma = sqrt(eta/2); the fields
    # are read by attribute, so the estimator needs no ParamSet import
    key = LweInstance.from_params(SimpleNamespace(n=256, q=12289, k=2, eta=16))
    assert key == LweInstance.from_params(DEFAULT_PARAMS) == LweInstance.from_binomial(512, 12289, 16, 512)


def test_readme_tables_price_the_instances_they_name(reference_instance):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(r"^\| (primal|dual) \| (\d+) \| (\d+) \| (\d+) \| (\d+) \|$", readme, re.M)
    assert rows == [(a.kind, *map(str, (a.m, a.b, a.classical_bits, a.quantum_bits)))
                    for inst in (reference_instance, LweInstance.from_params(DEFAULT_PARAMS))
                    for a in (primal_cost(inst), dual_cost(inst))]


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


def dual_log2_tau(inst: LweInstance, m: int, b: int) -> float:
    """Scalar oracle for log2 tau = log2(ell sigma / q) at one (m, b) cell, via bkz_delta."""
    d = inst.n_lwe + m
    log2_ell = d * math.log2(bkz_delta(b)) + (inst.n_lwe / d) * math.log2(inst.q)
    return log2_ell + math.log2(inst.sigma / inst.q)


def dual_repetitions_log2(inst: LweInstance, m: int, b: int) -> float:
    """Scalar oracle for log2 of the dual repetition count R at one (m, b) cell, unclamped."""
    tau = 2.0 ** dual_log2_tau(inst, m, b)
    log2_eps = -2 * math.pi**2 * tau * tau / math.log(2)
    return max(0.0, -2 * log2_eps - SIEVE_VECTORS_EXP * b)


def test_dual_repetitions_monotone_in_b(reference_instance):
    b = np.arange(50, 1200, 10)
    reps = _dual_log2_rep(reference_instance, np.full(b.shape, 1100), b, _log_delta(b))
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

def _m_chunks(inst: LweInstance):
    """Every m in [1, max_samples], in chunks of 256."""
    for m_lo in range(1, inst.max_samples + 1, 256):
        yield np.arange(m_lo, min(m_lo + 256, inst.max_samples + 1))


def reference_costs(inst: LweInstance, kind: str, m: np.ndarray) -> np.ndarray:
    """The cost of every (m, b) cell for the given m: one row per m, one column per b."""
    b = np.arange(MIN_BLOCK, inst.n_lwe + inst.max_samples + 2)
    log_delta = _log_delta(b)
    if kind == "primal":
        d = (inst.n_lwe + m + 1)[:, None]
        rhs = (2 * b[None, :] - d - 1) * log_delta[None, :] + (m[:, None] / d) * math.log(inst.q)
        log_sb = math.log(inst.sigma) + 0.5 * np.log(b)
        feasible = (log_sb[None, :] <= rhs) & (b[None, :] <= d)
        return np.where(feasible, CLASSICAL_EXP * b[None, :], np.inf)
    d = (inst.n_lwe + m)[:, None].astype(np.float64)
    log2_ell = d * (log_delta / math.log(2))[None, :] + (inst.n_lwe / d) * math.log2(inst.q)
    tau = 2.0 ** np.minimum(log2_ell + math.log2(inst.sigma / inst.q), 30.0)
    log2_eps = -2 * math.pi**2 * tau * tau / math.log(2)
    log2_rep = np.maximum(0.0, -2 * log2_eps - SIEVE_VECTORS_EXP * b[None, :])
    return np.where(b[None, :] <= d, CLASSICAL_EXP * b[None, :] + log2_rep, np.inf)


def reference_row_minima(inst: LweInstance, kind: str) -> np.ndarray:
    """The minimum cost of each b row over every m, by a full sweep."""
    return np.min([reference_costs(inst, kind, m).min(axis=0) for m in _m_chunks(inst)], axis=0)


def reference_search(inst: LweInstance, kind: str) -> AttackEstimate:
    """Sweep every (m, b) cell in chunks of 256 m; lexicographic (cost, b, m) minimum."""
    b = np.arange(MIN_BLOCK, inst.n_lwe + inst.max_samples + 2)
    best = None
    for m in _m_chunks(inst):
        cost = reference_costs(inst, kind, m)
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
    if kind == "dual" and dual_log2_tau(inst, m_opt, b_opt) >= TAU_CLAMP_LOG2:
        raise EstimatorError("the dual optimum's tau is at the clamp")
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


SMALL_INSTANCES = dict(n_lwe=st.integers(1, 300), max_samples=st.integers(1, 600),
                       q=st.sampled_from([257, 3329, 12289, 65537]), sigma=st.floats(0.3, 60))


@settings(max_examples=200, deadline=None)
@given(**SMALL_INSTANCES)
# a dual optimum at b = 114 whose 0.292 b is within one bit of b = 50..113's best cost
@example(n_lwe=89, max_samples=239, q=12289, sigma=36.5)
# the tau clamp binds on every screen cell of 357 dual rows, so their flat rows are bounded
# by the clamped cost
@example(n_lwe=280, max_samples=300, q=2**61 - 1, sigma=0.15 * (2**61 - 1))
# the dual optimum is the b = 108 row's ceil(d*) cell: a screen of floor(d*) alone skips that row
@example(n_lwe=23, max_samples=167, q=257, sigma=19.32)
# the dual optimum's row is flat (R = 1) from m = 452 to the screen's clipped m = 461
@example(n_lwe=254, max_samples=461, q=65537, sigma=39.2)
# both optima lie on the last row that b <= d leaves non-empty; the dual's next row is empty
@example(n_lwe=97, max_samples=38, q=12289, sigma=3.4355)
# the closest call to a reported floor in a scan of 10^6 instances drawn from this space:
# the dual's 0.265 b + log2 R is 419 + 3.2e-7 (b = 430, m = 346)
@example(n_lwe=84, max_samples=346, q=257, sigma=45.03076450873125)
def test_search_matches_full_grid(n_lwe, max_samples, q, sigma):
    inst = LweInstance(n_lwe=n_lwe, q=q, sigma=sigma, max_samples=max_samples)
    _assert_matches_reference(inst)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for attack, kind in ((primal_cost, "primal"), (dual_cost, "dual")):
            _, blocks = _traced_search(attack, inst, monkeypatch)
            if blocks:  # refused before the search: nothing screened
                _assert_screen_bounds_every_row(inst, kind, blocks[0][0])


def test_empty_block_range_raises_estimator_error():
    # EstimatorError naming the cause, not the ValueError numpy raises for argmin over
    # an empty block: every lattice dimension lies below MIN_BLOCK. The primal lattice
    # has one dimension more than the dual's, so at n_lwe + max_samples = 49 the primal
    # still has a cell.
    empty = LweInstance(n_lwe=10, q=12289, sigma=2.0, max_samples=20)  # no b >= 50 in range
    for attack, d in ((primal_cost, 31), (dual_cost, 30)):
        with pytest.raises(EstimatorError, match=f"dimension, {d} at m = max_samples, is below "
                                                 f"MIN_BLOCK = {MIN_BLOCK}"):
            attack(empty)
    _assert_matches_reference(empty)
    edge = LweInstance(n_lwe=17, q=12289, sigma=2.0, max_samples=32)
    assert primal_cost(edge).b == MIN_BLOCK
    with pytest.raises(EstimatorError, match="dimension, 49 at m = max_samples"):
        dual_cost(edge)
    _assert_matches_reference(edge)


def _traced_search(attack, inst: LweInstance, monkeypatch):
    """The outcome (see ``_outcome``) and the (cost, m per cell, b) of every block handed to
    ``_pick``."""
    blocks = []
    pick = mlds.estimator._pick

    def traced(cost, m, b):
        blocks.append((cost.copy(), np.broadcast_to(m, cost.shape).copy(), b.copy()))
        return pick(cost, m, b)

    monkeypatch.setattr(mlds.estimator, "_pick", traced)
    return _outcome(attack, inst), blocks


def clipped_optimum(inst: LweInstance, offset: int) -> np.ndarray:
    """Each b row's optimum over real m, sqrt(n' ln q / ln delta(b)) - n', n' = n_lwe + offset,
    clipped to [max(1, b - n'), max_samples] and not floored."""
    n, b = inst.n_lwe + offset, np.arange(MIN_BLOCK, inst.n_lwe + inst.max_samples + 2)
    m = np.sqrt(n * math.log(inst.q) / _log_delta(b)) - n
    return np.minimum(np.maximum(m, np.maximum(b - n, 1)), inst.max_samples)


def _assert_screen_bounds_every_row(inst: LweInstance, kind: str, screen: np.ndarray) -> None:
    # the exactness argument: each row's screen value is at most its full-sweep minimum
    assert screen.shape == (1, inst.n_lwe + inst.max_samples + 2 - MIN_BLOCK)
    assert np.all(screen[0] <= reference_row_minima(inst, kind))


@pytest.mark.parametrize("attack, kind", [(primal_cost, "primal"), (dual_cost, "dual")],
                         ids=["primal_cost", "dual_cost"])
def test_search_screens_every_row_and_skips_only_dominated_ones(reference_instance, attack, kind,
                                                                monkeypatch):
    inst = reference_instance
    est, blocks = _traced_search(attack, inst, monkeypatch)
    every_b = np.arange(MIN_BLOCK, inst.n_lwe + inst.max_samples + 2)
    every_m = np.arange(1, inst.max_samples + 1)[:, None]
    (screen, screen_m, screen_b), *whole = blocks
    # one (1, #b) screen, each row at its clipped real optimum over m
    assert screen.shape == (1, every_b.size) and np.array_equal(screen_b, every_b)
    np.testing.assert_allclose(screen_m[0], clipped_optimum(inst, kind == "primal"), rtol=1e-12)
    assert np.any(screen_m != np.floor(screen_m))  # not floored
    for _, m, b in whole:  # whole rows: every m of each of its b, b ascending within a block
        assert np.array_equal(m, np.broadcast_to(every_m, (inst.max_samples, b.size)))
        assert np.all(np.diff(b) > 0)
    rows = np.concatenate([b for _, _, b in whole])
    assert 1 <= rows.size <= 4 and np.unique(rows).size == rows.size and est.b in rows
    cells = sum(m.size for _, m, _ in blocks)
    assert cells == every_b.size + inst.max_samples * rows.size
    assert 50 * cells < inst.max_samples * every_b.size
    _assert_screen_bounds_every_row(inst, kind, screen)
    # every row the search skipped has its full-sweep minimum strictly above the optimum
    minima = reference_row_minima(inst, kind)
    optimum = minima.min()
    assert minima[every_b == est.b][0] == optimum
    assert np.all(minima[~np.isin(every_b, rows)] > optimum)
    if kind == "primal":  # no feasible cell below b_opt
        assert np.all(np.isinf(minima[every_b < est.b]))


def test_a_looser_slack_keeps_every_estimate(monkeypatch):
    # SCREEN_SLACK = 1e-2 still bounds every row from below, but lets through primal rows with
    # no feasible cell, so the search must go on in screen order past its first whole row
    monkeypatch.setattr(mlds.estimator, "SCREEN_SLACK", 1e-2)
    search, pick, searches = mlds.estimator._search, mlds.estimator._pick, []

    def traced_search(inst, block_cost, offset):
        searches.append((offset, []))
        return search(inst, block_cost, offset)

    def traced_pick(cost, m, b):
        searches[-1][1].append(pick(cost, m, b))
        return searches[-1][1][-1]

    monkeypatch.setattr(mlds.estimator, "_search", traced_search)
    monkeypatch.setattr(mlds.estimator, "_pick", traced_pick)

    @settings(max_examples=100, deadline=None)
    @given(**SMALL_INSTANCES)
    def matches_reference(n_lwe, max_samples, q, sigma):
        _assert_matches_reference(LweInstance(n_lwe=n_lwe, q=q, sigma=sigma,
                                              max_samples=max_samples))

    matches_reference()
    # a primal search whose screen found a row, and whose first whole row had no finite cell
    fallbacks = [picks for offset, picks in searches
                 if offset == 1 and len(picks) > 1 and picks[0] and picks[1] is None]
    assert len(fallbacks) >= 1


def test_a_search_whose_rows_are_finite_only_on_the_screen_finds_nothing():
    # a block cost finite only under the screen's slack: the screen leads the search to a
    # row, every whole row is infinite, so it visits each row once in screen order and
    # returns None, which primal_cost reports as EstimatorError
    inst, rows = LweInstance(n_lwe=40, q=12289, sigma=3.0, max_samples=20), []

    def block_cost(m, b, log_delta, half_log_b, slack):
        cost = CLASSICAL_EXP * b + 0.0 * m
        if not slack:
            rows.extend(int(v) for v in np.ravel(b))
        return cost if slack else np.full_like(cost, np.inf)

    assert mlds.estimator._search(inst, block_cost, 0) is None
    assert sorted(rows) == list(range(MIN_BLOCK, 40 + 20 + 2))


@pytest.mark.parametrize("inst, m_b", [
    # R = 1 from m = 452 up to the screen's cell, the clipped m = 461
    (LweInstance(n_lwe=254, q=65537, sigma=39.2, max_samples=461), (452, 293)),
    # the tau clamp holds every cell at its cap, so each row is flat over all of its m; the
    # optimum's cost would be the clamp's, 4 pi^2 2^60 / ln 2 bits, so dual_cost refuses it
    (LweInstance(n_lwe=60, q=2**61 - 1, sigma=(2**61 - 1) / 4, max_samples=10), None),
], ids=["r-is-1", "tau-clamp"])
def test_flat_dual_row_reports_its_smallest_m(inst, m_b, monkeypatch):
    search, found = mlds.estimator._search, []

    def traced(*args):
        found.append(search(*args))  # (cost, b, m)
        return found[-1]

    monkeypatch.setattr(mlds.estimator, "_search", traced)
    est, blocks = _traced_search(dual_cost, inst, monkeypatch)
    _, b, m = found[0]
    _, screen_m, screen_b = blocks[0]
    assert screen_m[:, screen_b == b].min() > m  # the search reports the flat row's smallest m
    if m_b is None:
        assert (m, b) == (1, 50) and est is EstimatorError
        with pytest.raises(EstimatorError, match="clamp"):
            dual_cost(inst)
        with pytest.raises(EstimatorError, match="clamp"):
            reference_search(inst, "dual")
    else:
        assert (m, b) == (est.m, est.b) == m_b
        assert reference_search(inst, "dual") == est


@pytest.mark.parametrize("n_lwe, primal, dual", [
    (2048, (1995, 2121, 619, 562), (1998, 2107, 615, 558)),
    (3072, (2865, 3315, 967, 878), (2892, 3293, 961, 872)),
])
def test_large_instances_keep_the_full_scan_estimates(n_lwe, primal, dual):
    # (m, b, classical, quantum) recorded from the b-block scan that evaluated every
    # column up to its stop; the full-grid oracle is too slow at this size
    inst = LweInstance.from_binomial(n_lwe, 12289, 16)
    for attack, want in ((primal_cost, primal), (dual_cost, dual)):
        est = attack(inst)
        assert (est.m, est.b, est.classical_bits, est.quantum_bits) == want


def test_estimates_digest_pinned():
    # like the KAT digests: any change to a reported estimate, or to which of 200 seeded
    # random instances (n_lwe <= 1536, q up to 2^31 - 1) are rejected, changes this hash
    rng = np.random.default_rng(14)
    outcomes = []
    for _ in range(200):
        n_lwe = int(rng.integers(1, 1537))
        q = int(rng.choice((257, 3329, 7681, 12289, 65537, 8380417, 2**31 - 1)))
        sigma = float(np.exp(rng.uniform(math.log(0.3), math.log(3000))))
        max_samples = 2 * n_lwe if rng.random() < 0.5 else int(rng.integers(1, 2 * n_lwe + 1))
        inst = LweInstance(n_lwe=n_lwe, q=q, sigma=sigma, max_samples=max_samples)
        for attack in (primal_cost, dual_cost):
            try:
                est = attack(inst)
                outcomes.append((est.kind, est.m, est.b, est.classical_bits, est.quantum_bits))
            except EstimatorError as exc:
                outcomes.append(type(exc).__name__)
    assert sum(isinstance(o, tuple) for o in outcomes) == 286
    digest = hashlib.sha256(repr(outcomes).encode()).hexdigest()
    assert digest == "8604fa6b49ef65504544595b1a22a4c17dc70b738fb92ef02f99e2e9885db860"


def test_evaluated_cells_digest_pinned(monkeypatch):
    # every cell the search evaluates, not only the chosen one: a change that moved a losing
    # cell by one ulp changes a hash. The whole rows, over every m, and the screen blocks are
    # hashed apart, so a new screen leaves the whole-row hash as it was. The instances are
    # the benchmark's estimate grid.
    digests, pick = {"screen": hashlib.sha256(), "whole": hashlib.sha256()}, mlds.estimator._pick

    def traced(cost, m, b):
        digest = digests["whole" if cost.shape[0] == inst.max_samples else "screen"]
        for values in (cost, np.broadcast_to(m, cost.shape), b):
            digest.update(np.ascontiguousarray(values, dtype=np.float64).tobytes())
        return pick(cost, m, b)

    monkeypatch.setattr(mlds.estimator, "_pick", traced)
    for n_lwe in (512, 768, 1024):
        for eta in (2, 4, 8, 16):
            inst = LweInstance.from_binomial(n_lwe, 12289, eta)
            primal_cost(inst)
            dual_cost(inst)
    assert {k: d.hexdigest() for k, d in digests.items()} == {
        "screen": "e28b744604e7e865d4b356c327fae24ec9af0f158210eb6c142911e484bd32fc",
        "whole": "e5ca1c1fec94bd18e82ecde8bcd8d003508e42d0446c4f27901f47056d51e5e2",
    }


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
