import numpy as np
import pytest

from mlds import COEFF, NTT, RqArray, DomainError, ParamSet, get_ring

from conftest import random_poly
from ring_oracle import poly, zero, one, monomial, ntt_poly, centered, mul, schoolbook_mul, vec, row


def ntt_matrix(rows):
    """A (k, k, n) NTT-domain matrix from k rows of k one-row NTT-domain values."""
    return RqArray(np.array([[e.data[0] for e in entries] for entries in rows]), NTT)


def random_ntt_matrix(ring, rng):
    return ntt_matrix(
        [[ring.ntt(random_poly(ring, rng)) for _ in range(ring.k)] for _ in range(ring.k)]
    )


def random_ntt_vec(ring, rng):
    return vec(ring, [ring.ntt(random_poly(ring, rng)) for _ in range(ring.k)])


# -- transforms ----------------------------------------------------------------

def test_ntt_of_zero_is_zero(ring):
    assert not ring.ntt(zero(ring)).data.any()
    assert ring.intt(RqArray(np.zeros((1, ring.n), dtype=np.int32), NTT)) == zero(ring)


def test_ntt_of_constant_is_constant(ring):
    c = monomial(ring, 0, 77)
    assert (ring.ntt(c).data == 77).all()


def test_ntt_roundtrip_random(ring, rng):
    for _ in range(200):
        p = random_poly(ring, rng)
        assert ring.intt(ring.ntt(p)) == p


def test_ntt_matches_definition(ring, rng):
    # evals[i] = sum_j gamma^j p_j omega^(i j), checked without the matrix tables
    c = ring.constants
    p = random_poly(ring, rng)
    for i in (0, 1, 17, 255):
        expected = sum(
            pow(c.gamma, j, ring.q) * int(p.data[0, j]) * pow(c.omega, i * j % ring.n, ring.q)
            for j in range(ring.n)
        ) % ring.q
        assert int(ring.ntt(p).data[0, i]) == expected


def definition_matrices(ring):
    """Dense int64 forward and inverse NTT matrices from ring.n, ring.q and the roots
    gamma, omega and n_inv of ring.constants.

    Built from the roots alone, sharing nothing with the transform tables:
    forward[i, j] = gamma^j * omega^(i*j), inverse[j, i] = n^-1 * gamma^-j * omega^(-i*j).
    """
    n, q, c = ring.n, ring.q, ring.constants
    gamma_inv, omega_inv = pow(c.gamma, -1, q), pow(c.omega, -1, q)

    def powers(base):
        out = [1]
        for _ in range(n - 1):
            out.append(out[-1] * base % q)
        return np.array(out, dtype=np.int64)

    ij = np.outer(np.arange(n), np.arange(n)) % n
    forward = powers(c.omega)[ij] * powers(c.gamma)[None, :] % q
    inverse = powers(omega_inv)[ij] * powers(gamma_inv)[:, None] % q * c.n_inv % q
    return forward, inverse


def test_float_transforms_match_integer_definition(ring, rng):
    # Stage 1 sums R1 products below (q-1)^2 and stage 2 sums R2 products of
    # those with a table entry below q: every partial sum is at most
    # n*(q-1)^3 < 2^53, so the float64 transform is exact without a reduction
    # between the stages; the float reduction y - floor(y/q)*q is exact below
    # 2^53 too, and only its result fits the int32 output. Compare with int64
    # arithmetic on the definition.
    assert ring.n * (ring.q - 1) ** 3 == 256 * 12288**3 < 2**53
    forward, inverse = definition_matrices(ring)
    worst = np.full(ring.n, ring.q - 1, dtype=np.int64)
    vectors = [rng.integers(0, ring.q, ring.n, dtype=np.int64) for _ in range(200)] + [worst]
    for x in vectors:
        x_hat, x_back = ring.ntt(poly(ring, x)).data[0], ring.intt(ntt_poly(ring, x)).data[0]
        assert x_hat.dtype == x_back.dtype == np.int32
        assert np.array_equal(x_hat, forward @ x % ring.q)
        assert np.array_equal(x_back, inverse @ x % ring.q)
    c = ring.constants
    assert c.forward.dtype == c.inverse.dtype == np.float64
    for table in (c.forward, c.inverse):
        assert table.min() >= 0 and table.max() < ring.q and np.array_equal(table, np.floor(table))


@pytest.mark.parametrize("param_set", [ParamSet(), ParamSet(n=128, q=257),
                                       ParamSet(n=512, redundancy=4)],
                         ids=["16x16", "8x16", "16x32"])
def test_stacked_transforms_match_integer_definition(param_set, rng):
    # (B, n) and (B, k, n) stacks of one-row values, including strided module
    # rows, on the square split and both non-square ones; the all-(q-1) stack
    # is the worst case.
    ring = get_ring(param_set)
    forward, inverse = definition_matrices(ring)
    stacks = [
        rng.integers(0, ring.q, (5, ring.n), dtype=np.int64),
        rng.integers(0, ring.q, (3, ring.k, ring.n), dtype=np.int64),
        rng.integers(0, ring.q, (4, ring.k, ring.n), dtype=np.int64)[:, 1, :],
        np.full((2, ring.k, ring.n), ring.q - 1, dtype=np.int64),
    ]
    for x in (s.astype(np.int32)[..., None, :] for s in stacks):
        assert np.array_equal(ring.ntt(RqArray(x, COEFF)).data, x @ forward.T % ring.q)
        assert np.array_equal(ring.intt(RqArray(x, NTT)).data, x @ inverse.T % ring.q)
        assert ring.ntt(RqArray(x, COEFF)).data.shape == x.shape


# -- multiplication -------------------------------------------------------------

def test_pointwise_identity(ring, rng):
    one_hat = ring.ntt(one(ring))
    a = ring.ntt(random_poly(ring, rng))
    assert ring.pointwise_mul(a, one_hat) == a


def test_negacyclic_wraparound(ring):
    # x * x^(n-1) = x^n = -1
    x = monomial(ring, 1)
    xn1 = monomial(ring, ring.n - 1)
    prod = mul(ring, x, xn1)
    assert prod == monomial(ring, 0, ring.q - 1)


def test_schoolbook_examples(ring, rng):
    a = random_poly(ring, rng)
    assert schoolbook_mul(ring, a, zero(ring)) == zero(ring)
    assert schoolbook_mul(ring, a, one(ring)) == a
    half = monomial(ring, ring.n // 2)
    assert schoolbook_mul(ring, half, half) == monomial(ring, 0, ring.q - 1)


def test_ntt_mul_matches_schoolbook(ring, rng):
    for _ in range(50):
        a, b = random_poly(ring, rng), random_poly(ring, rng)
        assert mul(ring, a, b) == schoolbook_mul(ring, a, b)


def test_ring_axioms(ring, rng):
    for _ in range(10):
        a, b, c = (random_poly(ring, rng) for _ in range(3))
        assert mul(ring, a, b) == mul(ring, b, a)
        assert mul(ring, mul(ring, a, b), c) == mul(ring, a, mul(ring, b, c))
        assert mul(ring, a, ring.add(b, c)) == ring.add(mul(ring, a, b), mul(ring, a, c))


# -- additive arithmetic ---------------------------------------------------------

def test_add_sub(ring, rng):
    a = random_poly(ring, rng)
    assert ring.add(a, zero(ring)) == a
    assert ring.sub(a, a) == zero(ring)
    top = poly(ring, np.full(ring.n, ring.q - 1, dtype=np.int64))
    one_everywhere = poly(ring, np.ones(ring.n, dtype=np.int64))
    assert ring.add(top, one_everywhere) == zero(ring)
    # one conditional correction against int64 % q, over every sum and
    # difference class: both wrap directions, 0 and q-1 on either side
    edges = np.array([0, 1, ring.q // 2, ring.q - 2, ring.q - 1])
    x, y = (v.ravel() for v in np.meshgrid(edges, edges))
    b = random_poly(ring, rng)
    pairs = [(a.data[0], b.data[0]), (np.resize(x, ring.n), np.resize(y, ring.n))]
    for u, v in pairs:
        pu, pv = poly(ring, u), poly(ring, v)
        wide_u, wide_v = u.astype(np.int64), v.astype(np.int64)
        assert np.array_equal(ring.add(pu, pv).data[0], (wide_u + wide_v) % ring.q)
        assert np.array_equal(ring.sub(pu, pv).data[0], (wide_u - wide_v) % ring.q)
        assert ring.add(pu, pv).data.dtype == ring.sub(pu, pv).data.dtype == np.int32
    # values built directly from int64 arrays are refused, not reduced wrongly
    wide = RqArray(a.data.astype(np.int64), COEFF)
    with pytest.raises(DomainError):
        ring.sub(wide, wide)
    with pytest.raises(DomainError):
        ring.add(RqArray(np.concatenate([wide.data] * ring.k), COEFF), vec(ring, [a] * ring.k))


def test_vector_add(ring, rng):
    u = vec(ring, [random_poly(ring, rng) for _ in range(ring.k)])
    z = vec(ring, [zero(ring) for _ in range(ring.k)])
    assert ring.add(u, z) == u
    assert ring.sub(u, u) == z


# -- module operations ------------------------------------------------------------

def test_matvec_identity(ring):
    one_hat = ring.ntt(one(ring))
    zero_hat = ring.ntt(zero(ring))
    eye = ntt_matrix(
        [[one_hat if i == j else zero_hat for j in range(ring.k)] for i in range(ring.k)]
    )
    v = vec(ring, [ring.ntt(monomial(ring, i + 1, 5 + i)) for i in range(ring.k)])
    assert ring.matvec(eye, v) == v


def test_matvec_zero(ring, rng):
    mat = random_ntt_matrix(ring, rng)
    z = vec(ring, [ring.ntt(zero(ring)) for _ in range(ring.k)])
    assert ring.matvec(mat, z) == z


def test_matvec_linear(ring, rng):
    mat = random_ntt_matrix(ring, rng)
    u = random_ntt_vec(ring, rng)
    v = random_ntt_vec(ring, rng)
    lhs = ring.matvec(mat, ring.add(u, v))
    rhs = ring.add(ring.matvec(mat, u), ring.matvec(mat, v))
    assert lhs == rhs


def test_matvec_matches_schoolbook(ring, rng):
    coeff_mat = [[random_poly(ring, rng) for _ in range(ring.k)] for _ in range(ring.k)]
    coeff_vec = [random_poly(ring, rng) for _ in range(ring.k)]
    mat = ntt_matrix([[ring.ntt(e) for e in row] for row in coeff_mat])
    v = vec(ring, [ring.ntt(e) for e in coeff_vec])
    # matvec(M, v) is M^T o v, so M with its module axes swapped gives M o v
    for transpose in (False, True):
        m = mat if transpose else RqArray(mat.data.swapaxes(-3, -2), NTT)
        fast = ring.vec_intt(ring.matvec(m, v))
        for i in range(ring.k):
            acc = zero(ring)
            for j in range(ring.k):
                entry = coeff_mat[j][i] if transpose else coeff_mat[i][j]
                acc = ring.add(acc, schoolbook_mul(ring, entry, coeff_vec[j]))
            assert row(fast, i) == acc


def test_inner_product(ring, rng):
    b = random_ntt_vec(ring, rng)
    slot0 = vec(ring, [
        ring.ntt(one(ring)) if i == 0 else ring.ntt(zero(ring)) for i in range(ring.k)
    ])
    assert ring.inner_product(slot0, b) == row(b, 0)
    zeros = vec(ring, [ring.ntt(zero(ring)) for _ in range(ring.k)])
    assert ring.inner_product(b, zeros) == ring.ntt(zero(ring))


def test_inner_product_matches_schoolbook(ring, rng):
    a_coeff = [random_poly(ring, rng) for _ in range(ring.k)]
    b_coeff = [random_poly(ring, rng) for _ in range(ring.k)]
    a = vec(ring, [ring.ntt(e) for e in a_coeff])
    b = vec(ring, [ring.ntt(e) for e in b_coeff])
    fast = ring.intt(ring.inner_product(a, b))
    slow = zero(ring)
    for x, y in zip(a_coeff, b_coeff):
        slow = ring.add(slow, schoolbook_mul(ring, x, y))
    assert fast == slow


def test_module_products_at_the_int32_bound(ring):
    # all entries q-1: each slot sums k = 2 products of (q-1)^2, the largest
    # int32 accumulation validate_params allows; compare with int64 arithmetic
    assert ring.k == 2 and ring.k * (ring.q - 1) ** 2 < 2**31
    top = np.full((ring.k, ring.k, ring.n), ring.q - 1, dtype=np.int32)
    mat, v = RqArray(top, NTT), RqArray(top[0], NTT)
    expected = ring.k * (ring.q - 1) ** 2 % ring.q
    for m in (mat, RqArray(top.swapaxes(-3, -2), NTT)):
        out = ring.matvec(m, v).data
        assert out.dtype == np.int32
        assert np.array_equal(out, (top.astype(np.int64) * top[0]).sum(axis=-2) % ring.q)
        assert (out == expected).all()
    inner = ring.inner_product(v, v).data
    assert inner.dtype == np.int32 and (inner == expected).all()


def test_z3_forms_agree(ring, rng):
    # <A o P, e1> == <P, A^T o e1>: sign computes z3 by the right-hand form
    for _ in range(20):
        mat = random_ntt_matrix(ring, rng)
        p_hat, e1_hat = random_ntt_vec(ring, rng), random_ntt_vec(ring, rng)
        lhs = ring.inner_product(ring.matvec(RqArray(mat.data.swapaxes(-3, -2), NTT), p_hat), e1_hat)
        assert lhs == ring.inner_product(p_hat, ring.matvec(mat, e1_hat))


# -- domain discipline -------------------------------------------------------------

def test_domain_mixing_rejected(ring, rng):
    p = random_poly(ring, rng)
    p_hat = ring.ntt(p)
    with pytest.raises(DomainError):
        ring.add(p, p_hat)
    with pytest.raises(DomainError):
        ring.sub(p_hat, p)
    with pytest.raises(DomainError):
        ring.pointwise_mul(p, p)
    with pytest.raises(DomainError):
        ring.ntt(p_hat)
    with pytest.raises(DomainError):
        ring.intt(p)
    with pytest.raises(DomainError):
        vec(ring, (p, p_hat))
    u, u_hat = vec(ring, (p, p)), vec(ring, (p_hat, p_hat))
    with pytest.raises(DomainError):
        ring.add(u, u_hat)
    # a k-row vector and a one-row element do not broadcast against each other
    with pytest.raises(DomainError):
        ring.add(u, p)
    with pytest.raises(DomainError):
        ring.sub(p_hat, u_hat)
    with pytest.raises(DomainError):
        ring.pointwise_mul(u_hat, p_hat)
    with pytest.raises(DomainError):
        ring.ntt(u)
    with pytest.raises(DomainError):
        ring.add(p.data, p)
    with pytest.raises(DomainError):
        ring.vec_ntt(u_hat)
    with pytest.raises(DomainError):
        ring.matvec(random_ntt_matrix(ring, rng), u)
    with pytest.raises(DomainError):
        ring.inner_product(u, u_hat)
    with pytest.raises(DomainError):
        ring.infinity_norm(p_hat)
    # a value without a row axis is refused by its check, not by an index read
    flat, flat_hat = RqArray(p.data[0], COEFF), RqArray(p_hat.data[0], NTT)
    for op, args in [(ring.add, (flat, flat)), (ring.sub, (flat, p)), (ring.add, (p, flat)),
                     (ring.ntt, (flat,)), (ring.intt, (flat_hat,)), (ring.vec_ntt, (flat,)),
                     (ring.vec_intt, (flat_hat,)), (ring.pointwise_mul, (flat_hat, flat_hat)),
                     (ring.matvec, (random_ntt_matrix(ring, rng), flat_hat)),
                     (ring.matvec, (flat_hat, flat_hat)), (ring.inner_product, (flat_hat, flat_hat))]:
        with pytest.raises(DomainError):
            op(*args)


def test_poly_validation(ring):
    with pytest.raises(ValueError):
        poly(ring, np.full(ring.n, ring.q, dtype=np.int64))
    with pytest.raises(ValueError):
        poly(ring, np.zeros(ring.n - 1, dtype=np.int64))
    with pytest.raises(ValueError):
        poly(ring, np.full(ring.n, -1, dtype=np.int64))
    # range-checked before the int32 cast, which would wrap 2^32 to 0
    with pytest.raises(ValueError):
        poly(ring, [2**32] + [0] * (ring.n - 1))
    with pytest.raises(ValueError):
        poly(ring, np.full(ring.n, 2**32 + 1, dtype=np.int64))
    assert poly(ring, [ring.q - 1] * ring.n).data.dtype == np.int32


def test_infinity_norm_centered(ring):
    p = poly(ring, np.array([0, 1, ring.q - 1, 6144, 6145] + [0] * (ring.n - 5), dtype=np.int64))
    # q - 6145 = 6144, so both middle values sit at the maximum distance
    assert ring.infinity_norm(p) == 6144
    assert ring.infinity_norm(monomial(ring, 3, ring.q - 16)) == 16
    v = vec(ring, [monomial(ring, 0, 5), monomial(ring, 1, ring.q - 9)])
    assert ring.infinity_norm(v) == 9
    assert centered(ring, monomial(ring, 0, ring.q - 2))[0, 0] == -2


# -- leading batch axes -------------------------------------------------------------

def random_batch(ring, rng, *shape):
    return rng.integers(0, ring.q, shape + (ring.n,), dtype=np.int64).astype(np.int32)


def test_batched_transforms_match_rows(ring, rng):
    x = random_batch(ring, rng, 5, 1)
    stacked_hat = ring.ntt(RqArray(x, COEFF))
    stacked_back = ring.intt(RqArray(x, NTT))
    for t in range(5):
        assert RqArray(stacked_hat.data[t], NTT) == ring.ntt(RqArray(x[t], COEFF))
        assert RqArray(stacked_back.data[t], COEFF) == ring.intt(RqArray(x[t], NTT))


def test_batched_module_ops_match_rows(ring, rng):
    trials, k = 4, ring.k
    mats = RqArray(random_batch(ring, rng, trials, k, k), NTT)
    u = RqArray(random_batch(ring, rng, trials, k), NTT)
    v = RqArray(random_batch(ring, rng, trials, k), NTT)
    c = RqArray(random_batch(ring, rng, trials, k), COEFF)
    assert u.data.shape[-2] == k and row(u, 1).data.shape == (trials, 1, ring.n)
    vec_hat, vec_back = ring.vec_ntt(c), ring.vec_intt(u)
    for m in (mats, RqArray(mats.data.swapaxes(-3, -2), NTT)):
        batched = ring.matvec(m, u)
        for t in range(trials):
            one = ring.matvec(RqArray(m.data[t], NTT), RqArray(u.data[t], NTT))
            assert np.array_equal(batched.data[t], one.data)
    inner = ring.inner_product(u, v)
    total = ring.add(c, c)
    for t in range(trials):
        ut, vt, ct = (RqArray(w.data[t], w.domain) for w in (u, v, c))
        assert np.array_equal(inner.data[t], ring.inner_product(ut, vt).data)
        assert np.array_equal(total.data[t], ring.add(ct, ct).data)
        assert np.array_equal(vec_hat.data[t], ring.vec_ntt(ct).data)
        assert np.array_equal(vec_back.data[t], ring.vec_intt(ut).data)
        assert np.array_equal(ring.sub(row(u, 0), row(v, 0)).data[t],
                              ring.sub(row(ut, 0), row(vt, 0)).data)


def test_vector_transforms_with_two_batch_axes_match_each_trial(ring, rng):
    # a (B1, B2, k, n) vector transforms as each of its B1 x B2 trials does alone
    x = random_batch(ring, rng, 2, 3, ring.k)
    vec_hat, vec_back = ring.vec_ntt(RqArray(x, COEFF)), ring.vec_intt(RqArray(x, NTT))
    assert vec_hat.data.shape == vec_back.data.shape == x.shape
    for s, t in np.ndindex(2, 3):
        assert np.array_equal(vec_hat.data[s, t], ring.vec_ntt(RqArray(x[s, t], COEFF)).data)
        assert np.array_equal(vec_back.data[s, t], ring.vec_intt(RqArray(x[s, t], NTT)).data)


def test_unbatched_values_broadcast_against_a_batch(ring, rng):
    # a key without a trial axis combines with a batch of noise row by row
    mat = random_ntt_matrix(ring, rng)
    p_hat = random_ntt_vec(ring, rng)
    e = RqArray(random_batch(ring, rng, 3, ring.k), NTT)
    batched = ring.matvec(mat, e)
    inner = ring.inner_product(p_hat, e)
    assert batched.data.shape == (3, ring.k, ring.n) and inner.data.shape == (3, 1, ring.n)
    for t in range(3):
        et = RqArray(e.data[t], NTT)
        assert np.array_equal(batched.data[t], ring.matvec(mat, et).data)
        assert np.array_equal(inner.data[t], ring.inner_product(p_hat, et).data)


def test_batched_domain_mixing_rejected(ring, rng):
    x = random_batch(ring, rng, 3, ring.k)
    c, c_hat = RqArray(x, COEFF), RqArray(x, NTT)
    with pytest.raises(DomainError):
        ring.add(c, c_hat)
    # (3, k, n) and (3, 1, n) would broadcast; the row counts differ
    with pytest.raises(DomainError):
        ring.add(c, row(c, 0))
    with pytest.raises(DomainError):
        ring.sub(row(c_hat, 1), c_hat)
    with pytest.raises(DomainError):
        ring.ntt(row(c_hat, 0))
    with pytest.raises(DomainError):
        ring.intt(row(c, 0))
    with pytest.raises(DomainError):
        ring.vec_ntt(c_hat)
    with pytest.raises(DomainError):
        ring.vec_intt(c)
    with pytest.raises(DomainError):
        ring.matvec(random_ntt_matrix(ring, rng), c)
    with pytest.raises(DomainError):
        ring.inner_product(c_hat, c)
    with pytest.raises(DomainError):
        vec(ring, (row(c, 0), row(c_hat, 1)))
    # module rank is axis -2, not the trial axis
    with pytest.raises(DomainError):
        ring.matvec(RqArray(random_batch(ring, rng, 3, 3, 3), NTT), c_hat)
