import math

import pytest

from mlds import (
    DEFAULT_PARAMS, ParamSet,
    LweInstance, EstimatorError, bkz_delta, primal_cost, dual_cost, key_sizes,
)
from mlds.estimator import dual_repetitions_log2


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


def test_dual_repetitions_monotone_in_b(reference_instance):
    reps = [dual_repetitions_log2(reference_instance, m=1100, b=b) for b in range(50, 1200, 10)]
    assert all(a >= b for a, b in zip(reps, reps[1:]))
    assert reps[0] > 0  # small blocks need astronomically many repetitions
    assert reps[-1] == 0.0


def test_primal_infeasible_raises():
    # tiny sample budget and huge noise: embedding condition never satisfied
    inst = LweInstance(n_lwe=1024, q=12289, sigma=1e9, max_samples=4)
    with pytest.raises(EstimatorError):
        primal_cost(inst)


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
