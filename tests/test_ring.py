import numpy as np
import pytest

from mlds import Poly, NttPoly, PolyVec, NttMatrix, DomainError

from conftest import random_poly


def ntt_matrix(rows):
    return NttMatrix(np.array([[e.evals for e in row] for row in rows]))


def random_ntt_matrix(ring, rng):
    return ntt_matrix(
        [[ring.ntt(random_poly(ring, rng)) for _ in range(ring.k)] for _ in range(ring.k)]
    )


def random_ntt_vec(ring, rng):
    return ring.vec(ring.ntt(random_poly(ring, rng)) for _ in range(ring.k))


# -- transforms ----------------------------------------------------------------

def test_ntt_of_zero_is_zero(ring):
    assert not ring.ntt(ring.zero()).evals.any()
    assert ring.intt(NttPoly(np.zeros(ring.n, dtype=np.int64))) == ring.zero()


def test_ntt_of_constant_is_constant(ring):
    c = ring.monomial(0, 77)
    assert (ring.ntt(c).evals == 77).all()


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
            pow(c.gamma, j, ring.q) * int(p.coeffs[j]) * pow(c.omega, i * j % ring.n, ring.q)
            for j in range(ring.n)
        ) % ring.q
        assert int(ring.ntt(p).evals[i]) == expected


def test_float_transforms_match_integer_definition(ring, rng):
    # Every partial sum of table @ x is at most n*(q-1)^2, below 2^53, so the
    # float64 product is exact; compare against int64 arithmetic throughout.
    assert ring.n * (ring.q - 1) ** 2 == 256 * 12288**2 < 2**53
    c = ring.constants
    forward, inverse = c.forward.astype(np.int64), c.inverse.astype(np.int64)
    worst = np.full(ring.n, ring.q - 1, dtype=np.int64)
    vectors = [rng.integers(0, ring.q, ring.n, dtype=np.int64) for _ in range(200)] + [worst]
    for x in vectors:
        assert np.array_equal(ring.ntt(ring.poly(x)).evals, forward @ x % ring.q)
        assert np.array_equal(ring.intt(ring.ntt_poly(x)).coeffs, inverse @ x % ring.q)
    for table, ints in ((c.forward, forward), (c.inverse, inverse)):
        assert table.dtype == np.float64 and np.array_equal(table, ints)
        assert ints.min() >= 0 and ints.max() < ring.q


# -- multiplication -------------------------------------------------------------

def test_pointwise_identity(ring, rng):
    one_hat = ring.ntt(ring.one())
    a = ring.ntt(random_poly(ring, rng))
    assert ring.pointwise_mul(a, one_hat) == a


def test_negacyclic_wraparound(ring):
    # x * x^(n-1) = x^n = -1
    x = ring.monomial(1)
    xn1 = ring.monomial(ring.n - 1)
    prod = ring.mul(x, xn1)
    assert prod == ring.monomial(0, ring.q - 1)


def test_schoolbook_examples(ring, rng):
    a = random_poly(ring, rng)
    assert ring.schoolbook_mul(a, ring.zero()) == ring.zero()
    assert ring.schoolbook_mul(a, ring.one()) == a
    half = ring.monomial(ring.n // 2)
    assert ring.schoolbook_mul(half, half) == ring.monomial(0, ring.q - 1)


def test_ntt_mul_matches_schoolbook(ring, rng):
    for _ in range(50):
        a, b = random_poly(ring, rng), random_poly(ring, rng)
        assert ring.mul(a, b) == ring.schoolbook_mul(a, b)


def test_ring_axioms(ring, rng):
    for _ in range(10):
        a, b, c = (random_poly(ring, rng) for _ in range(3))
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))


# -- additive arithmetic ---------------------------------------------------------

def test_add_sub(ring, rng):
    a = random_poly(ring, rng)
    assert ring.add(a, ring.zero()) == a
    assert ring.sub(a, a) == ring.zero()
    top = ring.poly(np.full(ring.n, ring.q - 1, dtype=np.int64))
    one_everywhere = ring.poly(np.ones(ring.n, dtype=np.int64))
    assert ring.add(top, one_everywhere) == ring.zero()


def test_vector_add(ring, rng):
    u = ring.vec([random_poly(ring, rng) for _ in range(ring.k)])
    z = ring.vec([ring.zero() for _ in range(ring.k)])
    assert ring.add(u, z) == u
    assert ring.sub(u, u) == z


# -- module operations ------------------------------------------------------------

def test_matvec_identity(ring):
    one_hat = ring.ntt(ring.one())
    zero_hat = ring.ntt(ring.zero())
    eye = ntt_matrix(
        [[one_hat if i == j else zero_hat for j in range(ring.k)] for i in range(ring.k)]
    )
    v = ring.vec(ring.ntt(ring.monomial(i + 1, 5 + i)) for i in range(ring.k))
    assert ring.matvec(eye, v) == v
    assert ring.matvec(eye, v, transpose=True) == v


def test_matvec_zero(ring, rng):
    mat = random_ntt_matrix(ring, rng)
    z = ring.vec(ring.ntt(ring.zero()) for _ in range(ring.k))
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
    vec = ring.vec(ring.ntt(e) for e in coeff_vec)
    for transpose in (False, True):
        fast = ring.vec_intt(ring.matvec(mat, vec, transpose=transpose))
        for i in range(ring.k):
            acc = ring.zero()
            for j in range(ring.k):
                entry = coeff_mat[j][i] if transpose else coeff_mat[i][j]
                acc = ring.add(acc, ring.schoolbook_mul(entry, coeff_vec[j]))
            assert fast[i] == acc


def test_inner_product(ring, rng):
    b = random_ntt_vec(ring, rng)
    slot0 = ring.vec(
        ring.ntt(ring.one()) if i == 0 else ring.ntt(ring.zero()) for i in range(ring.k)
    )
    assert ring.inner_product(slot0, b) == b[0]
    zeros = ring.vec(ring.ntt(ring.zero()) for _ in range(ring.k))
    assert ring.inner_product(b, zeros) == ring.ntt(ring.zero())


def test_inner_product_matches_schoolbook(ring, rng):
    a_coeff = [random_poly(ring, rng) for _ in range(ring.k)]
    b_coeff = [random_poly(ring, rng) for _ in range(ring.k)]
    a = ring.vec(ring.ntt(e) for e in a_coeff)
    b = ring.vec(ring.ntt(e) for e in b_coeff)
    fast = ring.intt(ring.inner_product(a, b))
    slow = ring.zero()
    for x, y in zip(a_coeff, b_coeff):
        slow = ring.add(slow, ring.schoolbook_mul(x, y))
    assert fast == slow


def test_z3_forms_agree(ring, rng):
    # <A o P, e1> == <P, A^T o e1>: sign computes z3 by the right-hand form
    for _ in range(20):
        mat = random_ntt_matrix(ring, rng)
        p_hat, e1_hat = random_ntt_vec(ring, rng), random_ntt_vec(ring, rng)
        lhs = ring.inner_product(ring.matvec(mat, p_hat), e1_hat)
        assert lhs == ring.inner_product(p_hat, ring.matvec(mat, e1_hat, transpose=True))


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
        ring.vec((p, p_hat))
    u, u_hat = ring.vec((p, p)), ring.vec((p_hat, p_hat))
    with pytest.raises(DomainError):
        ring.add(u, u_hat)
    with pytest.raises(DomainError):
        ring.add(u, p)
    with pytest.raises(DomainError):
        ring.vec_ntt(u_hat)
    with pytest.raises(DomainError):
        ring.matvec(random_ntt_matrix(ring, rng), u)
    with pytest.raises(DomainError):
        ring.inner_product(u, u_hat)
    with pytest.raises(DomainError):
        ring.infinity_norm(p_hat)


def test_poly_validation(ring):
    with pytest.raises(ValueError):
        ring.poly(np.full(ring.n, ring.q, dtype=np.int64))
    with pytest.raises(ValueError):
        ring.poly(np.zeros(ring.n - 1, dtype=np.int64))
    with pytest.raises(ValueError):
        ring.poly(np.full(ring.n, -1, dtype=np.int64))


def test_infinity_norm_centered(ring):
    p = ring.poly(np.array([0, 1, ring.q - 1, 6144, 6145] + [0] * (ring.n - 5), dtype=np.int64))
    # q - 6145 = 6144, so both middle values sit at the maximum distance
    assert ring.infinity_norm(p) == 6144
    assert ring.infinity_norm(ring.monomial(3, ring.q - 16)) == 16
    v = ring.vec([ring.monomial(0, 5), ring.monomial(1, ring.q - 9)])
    assert ring.infinity_norm(v) == 9
    centered = ring.centered(ring.monomial(0, ring.q - 2))
    assert centered[0] == -2


# -- leading batch axes -------------------------------------------------------------

def random_batch(ring, rng, *shape):
    return rng.integers(0, ring.q, shape + (ring.n,), dtype=np.int64)


def test_batched_transforms_match_rows(ring, rng):
    x = random_batch(ring, rng, 5)
    stacked_hat = ring.ntt(Poly(x))
    stacked_back = ring.intt(NttPoly(x))
    for t in range(5):
        assert NttPoly(stacked_hat.evals[t]) == ring.ntt(Poly(x[t]))
        assert Poly(stacked_back.coeffs[t]) == ring.intt(NttPoly(x[t]))


def test_batched_module_ops_match_rows(ring, rng):
    trials, k = 4, ring.k
    mats = NttMatrix(random_batch(ring, rng, trials, k, k))
    u = PolyVec(random_batch(ring, rng, trials, k), NttPoly)
    v = PolyVec(random_batch(ring, rng, trials, k), NttPoly)
    c = PolyVec(random_batch(ring, rng, trials, k), Poly)
    assert len(u) == k and u[1].evals.shape == (trials, ring.n)
    vec_hat, vec_back = ring.vec_ntt(c), ring.vec_intt(u)
    for transpose in (False, True):
        batched = ring.matvec(mats, u, transpose=transpose)
        for t in range(trials):
            row = ring.matvec(NttMatrix(mats.data[t]), PolyVec(u.data[t], NttPoly), transpose)
            assert np.array_equal(batched.data[t], row.data)
    inner = ring.inner_product(u, v)
    total = ring.add(c, c)
    for t in range(trials):
        ut, vt, ct = (PolyVec(w.data[t], w.domain) for w in (u, v, c))
        assert np.array_equal(inner.evals[t], ring.inner_product(ut, vt).evals)
        assert np.array_equal(total.data[t], ring.add(ct, ct).data)
        assert np.array_equal(vec_hat.data[t], ring.vec_ntt(ct).data)
        assert np.array_equal(vec_back.data[t], ring.vec_intt(ut).data)
        assert np.array_equal(ring.sub(u[0], v[0]).evals[t], ring.sub(ut[0], vt[0]).evals)


def test_unbatched_values_broadcast_against_a_batch(ring, rng):
    # a key without a trial axis combines with a batch of noise row by row
    mat = random_ntt_matrix(ring, rng)
    p_hat = random_ntt_vec(ring, rng)
    e = PolyVec(random_batch(ring, rng, 3, ring.k), NttPoly)
    batched = ring.matvec(mat, e, transpose=True)
    inner = ring.inner_product(p_hat, e)
    assert batched.data.shape == (3, ring.k, ring.n) and inner.evals.shape == (3, ring.n)
    for t in range(3):
        et = PolyVec(e.data[t], NttPoly)
        assert np.array_equal(batched.data[t], ring.matvec(mat, et, transpose=True).data)
        assert np.array_equal(inner.evals[t], ring.inner_product(p_hat, et).evals)


def test_batched_domain_mixing_rejected(ring, rng):
    x = random_batch(ring, rng, 3, ring.k)
    c, c_hat = PolyVec(x, Poly), PolyVec(x, NttPoly)
    with pytest.raises(DomainError):
        ring.add(c, c_hat)
    with pytest.raises(DomainError):
        ring.ntt(c_hat[0])
    with pytest.raises(DomainError):
        ring.intt(c[0])
    with pytest.raises(DomainError):
        ring.vec_ntt(c_hat)
    with pytest.raises(DomainError):
        ring.vec_intt(c)
    with pytest.raises(DomainError):
        ring.matvec(random_ntt_matrix(ring, rng), c)
    with pytest.raises(DomainError):
        ring.inner_product(c_hat, c)
    with pytest.raises(DomainError):
        ring.vec((c[0], c_hat[1]))
    # module rank is axis -2, not the trial axis
    with pytest.raises(DomainError):
        ring.matvec(NttMatrix(random_batch(ring, rng, 3, 3, 3)), c_hat)
