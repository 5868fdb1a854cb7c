import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from mlds import COEFF, ParamSet, RqArray, gen_a, gen_se, get_ring, hash_h, crh, keygen, sampling
from mlds.sampling import expand_key_noise, expand_signing_noise, gen_se_vec

import keccak_oracle
from ring_oracle import centered, infinity_norm, row

ZERO_SEED = bytes(32)


# -- hashing ---------------------------------------------------------------------

def test_hash_h_deterministic():
    assert hash_h(b"seed material") == hash_h(b"seed material")


def test_hash_h_avalanche():
    a = bytes(32)
    b = bytes(31) + b"\x01"
    ra, xa = hash_h(a)
    rb, xb = hash_h(b)
    assert ra != rb and xa != xb


def test_hash_h_empty_input_matches_independent_keccak():
    rho, xi = hash_h(b"")
    oracle = keccak_oracle.shake_256(b"", 64)
    assert rho == oracle[:32]
    assert xi == oracle[32:]
    # canonical SHAKE-256("") prefix
    assert rho.hex() == "46b9dd2b0ba88d13233b3feb743eeb243fcd52ea62b81b82b50c27646ed5762f"


def test_crh_matches_independent_keccak():
    for msg in (b"", b"abc", bytes(range(200))):
        assert crh(msg) == keccak_oracle.shake_256(msg, 32)
    assert len(crh(b"x")) == 32
    assert crh(b"abc").hex() == (
        "483366601360a8771c6863080cc4114d8db44530f8f1e1ee4f94ea37e78b5739"
    )


# -- public matrix ------------------------------------------------------------------

def test_gen_a_deterministic(ring):
    a = gen_a(ZERO_SEED, ring)
    b = gen_a(ZERO_SEED, ring)
    for i in range(ring.k):
        for j in range(ring.k):
            assert np.array_equal(a.data[..., i, j, :], b.data[..., i, j, :])


def test_gen_a_entries_distinct_and_in_range(ring):
    a = gen_a(ZERO_SEED, ring)
    seen = set()
    for i in range(ring.k):
        for j in range(ring.k):
            ev = a.data[..., i, j, :]
            assert ev.min() >= 0 and ev.max() < ring.q
            seen.add(ev.tobytes())
    assert len(seen) == ring.k * ring.k


def test_gen_a_regression_fixture(ring):
    a = gen_a(ZERO_SEED, ring)
    assert a.data[..., 0, 0, :8].tolist() == [8009, 217, 340, 11082, 10956, 6554, 11765, 11592]
    assert a.data[..., 1, 0, :8].tolist() == [8916, 6668, 298, 2758, 9792, 10086, 637, 6836]


def test_gen_a_mean(ring):
    a = gen_a(ZERO_SEED, ring)
    samples = np.concatenate([a.data[..., i, j, :] for i in range(ring.k) for j in range(ring.k)])
    sigma_mean = ring.q / math.sqrt(12 * len(samples))
    assert abs(samples.mean() - (ring.q - 1) / 2) < 3 * sigma_mean


def test_gen_a_uniformity_chi_square(ring):
    a = gen_a(ZERO_SEED, ring)
    samples = np.concatenate([a.data[..., i, j, :] for i in range(ring.k) for j in range(ring.k)])
    buckets = samples * 16 // ring.q
    observed = np.bincount(buckets, minlength=16)
    # bucket widths differ by one value; use exact probabilities
    width = np.array([np.count_nonzero(np.arange(ring.q) * 16 // ring.q == t) for t in range(16)])
    expected = len(samples) * width / ring.q
    _, p_value = stats.chisquare(observed, expected)
    assert p_value > 0.001


def test_gen_a_rejects_bad_seed(ring):
    with pytest.raises(ValueError):
        gen_a(b"short", ring)


def reference_gen_a(rho: bytes, ring, first: int = 1024) -> tuple[np.ndarray, int]:
    """Entry-by-entry sampler, each stream squeezed to ``first`` bytes and then
    at twice the length until n candidates accept; also returns how many
    entries needed more than ``first`` bytes."""
    p = ring.params
    mask = (1 << p.bits_per_coeff) - 1
    out = np.empty((p.k, p.k, p.n), dtype=np.int64)
    resqueezed = 0
    for i in range(p.k):
        for j in range(p.k):
            need = first
            while True:
                buf = hashlib.shake_128(rho + bytes([i, j])).digest(need)
                cand = np.frombuffer(buf, dtype="<u2").astype(np.int64) & mask
                accepted = cand[cand < p.q]
                if len(accepted) >= p.n:
                    break
                need *= 2
            out[i, j] = accepted[: p.n]
            resqueezed += need > first
    return out, resqueezed


def test_gen_a_matches_entrywise_reference(ring):
    rng = np.random.default_rng(11)
    for _ in range(50):
        rho = rng.bytes(32)
        assert np.array_equal(gen_a(rho, ring).data, reference_gen_a(rho, ring)[0])


@pytest.mark.parametrize("param_set, blocks", [
    (ParamSet(), 5), (ParamSet(n=128, q=257), 5), (ParamSet(n=512, redundancy=4), 10)])
def test_gen_a_squeezes_the_fewest_blocks_for_a_2_to_minus_32_shortfall(param_set, blocks):
    p = param_set
    accept = p.q / 2**p.bits_per_coeff
    assert sampling._gen_a_bytes(p.n, p.q, p.bits_per_coeff) == blocks * sampling.SHAKE128_RATE

    def short(b):  # P(fewer than n of the 84 b candidates accept)
        return stats.binom.cdf(p.n - 1, b * sampling.SHAKE128_RATE // 2, accept)

    assert short(blocks) <= 2.0**-32 < short(blocks - 1)


def test_gen_a_resqueezes_short_entries(monkeypatch):
    # q = 257 accepts about half of the 9-bit candidates, so with 3 blocks
    # (252 candidates) about half of the entries have fewer than n = 128 of
    # them; gen_a squeezes every stream again to reach the reference output.
    ring = get_ring(ParamSet(n=128, q=257))
    monkeypatch.setattr(sampling, "_gen_a_bytes", lambda n, q, bits: 3 * sampling.SHAKE128_RATE)
    rng = np.random.default_rng(12)
    resqueezed = 0
    for _ in range(50):
        rho = rng.bytes(32)
        expected, short = reference_gen_a(rho, ring, first=3 * sampling.SHAKE128_RATE)
        resqueezed += short
        assert np.array_equal(gen_a(rho, ring).data, expected)
    assert 0 < resqueezed < 50 * ring.k**2


# -- binomial noise -------------------------------------------------------------------

def test_gen_se_centered_magnitude(ring):
    for nonce in range(8):
        p = gen_se(ZERO_SEED, range(nonce, nonce + 1), ring)
        assert infinity_norm(ring, p) <= ring.params.eta


def test_gen_se_deterministic_and_nonce_separated(ring):
    a = gen_se(ZERO_SEED, range(3, 4), ring)
    b = gen_se(ZERO_SEED, range(3, 4), ring)
    c = gen_se(ZERO_SEED, range(4, 5), ring)
    assert a == b
    assert a != c


def test_gen_se_regression_fixture(ring):
    assert gen_se(ZERO_SEED, range(0, 1), ring).data[0, :8].tolist() == [2, 4, 2, 0, 12284, 0, 12288, 3]
    assert (gen_se(ZERO_SEED, range(1, 2), ring).data[0, :8].tolist()
            == [12287, 12288, 12285, 12284, 12287, 12288, 0, 2])


def reference_gen_se(seed: bytes, nonce: int, ring) -> np.ndarray:
    """Bit-by-bit psi_eta sampler: unpack the stream, sum each eta-bit half."""
    p = ring.params
    nbytes = (2 * p.eta * p.n + 7) // 8
    buf = hashlib.shake_256(seed + bytes([nonce])).digest(nbytes)
    bits = np.unpackbits(np.frombuffer(buf, dtype=np.uint8), bitorder="little")
    pairs = bits[: 2 * p.eta * p.n].reshape(p.n, 2 * p.eta).astype(np.int64)
    c = pairs[:, : p.eta].sum(axis=1) - pairs[:, p.eta :].sum(axis=1)
    return c % p.q


@pytest.mark.parametrize("eta", [8, 16, 24, 32, 64])
def test_gen_se_matches_bitwise_reference(eta):
    ring = get_ring(ParamSet(eta=eta))
    rng = np.random.default_rng(eta)
    for _ in range(50):
        seed, nonce = rng.bytes(32), int(rng.integers(256))
        one = gen_se(seed, range(nonce, nonce + 1), ring)
        assert np.array_equal(one.data[0], reference_gen_se(seed, nonce, ring))
        first = min(nonce, 256 - ring.k)
        batched = gen_se_vec(seed, first, ring)
        for i in range(ring.k):
            assert np.array_equal(batched.data[i], reference_gen_se(seed, first + i, ring))


def test_gen_se_rejects_bad_arguments(ring):
    with pytest.raises(ValueError):
        gen_se(b"short", range(0, 1), ring)
    with pytest.raises(ValueError):
        gen_se(ZERO_SEED, range(256, 257), ring)


def test_an_empty_seed_batch_is_refused_by_its_argument_name(ring):
    calls = {"rho": lambda: gen_a([], ring), "seed": lambda: gen_se([], range(0, 1), ring),
             "zeta": lambda: keygen([], ring.params)}
    for name, call in calls.items():
        with pytest.raises(ValueError, match=f"^{name} must be exactly 32 bytes, or a non-empty"):
            call()


def test_gen_se_vec_uses_consecutive_nonces(ring):
    v = gen_se_vec(ZERO_SEED, 2, ring)
    assert row(v, 0) == gen_se(ZERO_SEED, range(2, 3), ring)
    assert row(v, 1) == gen_se(ZERO_SEED, range(3, 4), ring)


@pytest.mark.parametrize("eta", [8, 16, 24, 32, 64])
def test_gen_se_over_a_nonce_range_equals_one_call_per_nonce(eta):
    ring = get_ring(ParamSet(eta=eta))
    rng = np.random.default_rng(100 + eta)
    seeds = [rng.bytes(32) for _ in range(3)]
    for first, stop in ((0, 6), (17, 18), (250, 256)):
        nonces = range(first, stop)
        one = gen_se(seeds[0], nonces, ring)
        batch = gen_se(seeds, nonces, ring)
        assert type(one) is RqArray and one.domain == COEFF
        assert one.data.shape == (len(nonces), ring.n)
        assert batch.data.shape == (len(seeds), len(nonces), ring.n)
        for i, t in enumerate(nonces):
            assert one.data[i].dtype == np.int32
            assert np.array_equal(one.data[i], gen_se(seeds[0], range(t, t + 1), ring).data[0])
            assert np.array_equal(batch.data[:, i], gen_se(seeds, range(t, t + 1), ring).data[:, 0])
            for j, seed in enumerate(seeds):
                assert np.array_equal(batch.data[j, i], reference_gen_se(seed, t, ring))


@pytest.mark.parametrize("trials", [None, 3], ids=["one-seed", "batch-of-3"])
def test_key_and_signing_noise_layout_matches_the_bitwise_reference(ring, trials):
    # s, e = nonces 0..k-1, k..2k-1 of xi; e1, e2, e3, e4 = 0..k-1, k..2k-1, 2k, 2k+1 of r
    k = ring.k
    xis = [bytes([0x40 + j]) * 32 for j in range(trials or 1)]
    coins = [bytes([0x80 + j]) * 32 for j in range(trials or 1)]
    s, e = expand_key_noise(xis if trials else xis[0], ring)
    e1, e2, e3, e4 = expand_signing_noise(coins if trials else coins[0], ring)
    layout = ([(xis, row(s, i), i) for i in range(k)]
              + [(xis, row(e, i), k + i) for i in range(k)]
              + [(coins, row(e1, i), i) for i in range(k)]
              + [(coins, row(e2, i), k + i) for i in range(k)]
              + [(coins, e3, 2 * k), (coins, e4, 2 * k + 1)])
    shape = (trials, 1, ring.n) if trials else (1, ring.n)
    for seeds, poly, nonce in layout:
        assert type(poly) is RqArray and poly.domain == COEFF and poly.data.shape == shape
        for seed, coeffs in zip(seeds, poly.data.reshape(-1, ring.n)):
            assert np.array_equal(coeffs, reference_gen_se(seed, nonce, ring))


def _centered_samples(ring, num_polys: int, seed: bytes) -> np.ndarray:
    assert num_polys <= 256  # one byte of nonce space per seed
    cs = []
    for nonce in range(num_polys):
        cs.append(centered(ring, gen_se(seed, range(nonce, nonce + 1), ring)))
    return np.concatenate(cs).ravel()


def test_gen_se_moments_100k(ring):
    eta = ring.params.eta
    samples = np.concatenate([
        _centered_samples(ring, 200, ZERO_SEED),
        _centered_samples(ring, 200, b"\x01" + bytes(31)),
    ])  # ~1e5 draws
    n = len(samples)
    sigma = math.sqrt(eta / 2)
    assert abs(samples.mean()) < 3 * sigma / math.sqrt(n)
    assert abs(samples.var() - eta / 2) < 0.05 * (eta / 2)


def test_gen_se_pmf_matches_binomial_1m(ring):
    eta = ring.params.eta
    seeds = [bytes([s]) + bytes(31) for s in range(16)]
    samples = np.concatenate([_centered_samples(ring, 245, sd) for sd in seeds])  # ~1e6
    n = len(samples)
    counts = np.bincount(samples + eta, minlength=2 * eta + 1)
    for t in range(-eta, eta + 1):
        p = math.comb(2 * eta, eta + t) / 2 ** (2 * eta)
        se = math.sqrt(p * (1 - p) / n)
        assert abs(counts[eta + t] / n - p) <= 3 * se + 1e-12, f"t={t}"
