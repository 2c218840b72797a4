"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately written from scratch on plain Python
lists (no shared code with the package internals beyond the public
element API where field arithmetic itself is the fixture, not the thing
under test); the MacWilliams transform alone takes one numpy FFT.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


# polynomial arithmetic over GF(p), coefficient lists low degree first
def poly_trim(f):
    while len(f) > 1 and f[-1] == 0:
        f = f[:-1]
    return f


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return poly_trim(out)


def poly_mod(f, m, p):
    f = list(f)
    dm = len(m) - 1
    inv_lead = pow(m[-1], -1, p)
    while len(f) - 1 >= dm and any(f):
        f = poly_trim(f)
        if len(f) - 1 < dm:
            break
        shift = len(f) - 1 - dm
        factor = (f[-1] * inv_lead) % p
        for i, c in enumerate(m):
            f[shift + i] = (f[shift + i] - factor * c) % p
        f = poly_trim(f)
    return poly_trim(f)


def poly_gcd(f, g, p):
    f, g = poly_trim(list(f)), poly_trim(list(g))
    while any(g):
        f, g = g, poly_mod(f, g, p)
    if any(f):
        inv = pow(f[-1], -1, p)
        f = [(c * inv) % p for c in f]
    return f


def poly_powmod(base, exponent, modulus, p):
    result = [1]
    base = poly_mod(base, modulus, p)
    while exponent:
        if exponent & 1:
            result = poly_mod(poly_mul(result, base, p), modulus, p)
        base = poly_mod(poly_mul(base, base, p), modulus, p)
        exponent >>= 1
    return result


def is_irreducible(modulus, p):
    """No nontrivial gcd with x^(p^i) - x for any i below the degree."""
    k = len(modulus) - 1
    for i in range(1, k):
        frob = poly_powmod([0, 1], p**i, modulus, p)
        diff = list(frob) + [0] * max(0, 2 - len(frob))
        diff[1] = (diff[1] - 1) % p
        g = poly_gcd(modulus, diff, p)
        if len(poly_trim(g)) > 1:
            return False
    return True


def residue_of_x_is_primitive(modulus, p):
    """Multiplicative order of the residue class of x equals p^k - 1."""
    k = len(modulus) - 1
    size = p**k
    cur = poly_mod([0, 1], modulus, p)
    if cur == [0]:
        return False
    acc = list(cur)
    for step in range(1, size - 1):
        if acc == [1]:
            return False
        acc = poly_mod(poly_mul(acc, cur, p), modulus, p)
    return acc == [1]


def order_of_x(modulus, p):
    """Multiplicative order of the residue of x, from the factorization of p^k - 1.

    Starts at p^k - 1 (which x^(p^k - 1) = 1 must confirm, else 0 is
    returned) and divides out each prime factor while x^(order/r) = 1.
    """
    k = len(modulus) - 1
    order = p**k - 1
    if poly_powmod([0, 1], order, modulus, p) != [1]:
        return 0
    rest, r = order, 2
    primes = []
    while r * r <= rest:
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    if rest > 1:
        primes.append(rest)
    for r in primes:
        while order % r == 0 and poly_powmod([0, 1], order // r, modulus, p) == [1]:
            order //= r
    return order


def powers_of_x(modulus, p):
    """x^0, ..., x^(p^k - 2) modulo the monic modulus, each encoded low digit first."""
    k = len(modulus) - 1
    out = []
    acc = [1]
    for _ in range(p**k - 1):
        digits = list(acc) + [0] * (k - len(acc))
        out.append(sum(c * p**i for i, c in enumerate(digits)))
        acc = poly_mod(poly_mul(acc, [0, 1], p), modulus, p)
    return out


def multiplicative_order(x):
    """Order of a nonzero field element by repeated multiplication."""
    assert x
    order = 1
    cur = x
    one = x.field.one
    while cur != one:
        cur = cur * x
        order += 1
    return order


# plain-list linear algebra for the enumeration oracle
def rref_lists(mat, p):
    a = [[v % p for v in row] for row in mat]
    n_rows = len(a)
    n_cols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        pivot = next((i for i in range(r, n_rows) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = pow(a[r][c], -1, p)
        a[r] = [(v * inv) % p for v in a[r]]
        for i in range(n_rows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [(u - f * v) % p for u, v in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def kernel_lists(mat, p):
    a, pivots = rref_lists(mat, p)
    n_cols = len(mat[0])
    free = [c for c in range(n_cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * n_cols
        vec[f] = 1
        for row, c in enumerate(pivots):
            vec[c] = (-a[row][f]) % p
        basis.append(vec)
    return basis


def min_distance_enumeration(rows, q):
    """True minimum distance by enumerating every codeword; None if the code is trivial."""
    mat = [[int(v) for v in row] for row in rows]
    basis = kernel_lists(mat, q)
    if not basis:
        return None
    n = len(mat[0])
    best = None
    for combo in itertools.product(range(q), repeat=len(basis)):
        if not any(combo):
            continue
        word = [0] * n
        for c, vec in zip(combo, basis):
            if c:
                for i in range(n):
                    word[i] = (word[i] + c * vec[i]) % q
        weight = sum(1 for v in word if v)
        if best is None or weight < best:
            best = weight
    return best


def colex_first_dependent(rows, q, w):
    """(1-based colex rank, columns) of the first dependent w-subset of columns, or None.

    Walks every w-subset in colex order (compared largest column first)
    and ranks each column slice by plain row reduction.
    """
    subsets = sorted(itertools.combinations(range(len(rows[0])), w), key=lambda c: c[::-1])
    for rank, cols in enumerate(subsets, start=1):
        if len(rref_lists([[row[c] for c in cols] for row in rows], q)[1]) < w:
            return rank, cols
    return None


def dependency_word(rows, q, cols):
    """First kernel basis vector on the columns, scaled to first coefficient 1.

    Returned as (1-based positions, coefficients) of its nonzero entries.
    """
    vec = kernel_lists([[row[c] for c in cols] for row in rows], q)[0]
    inv = pow(next(v for v in vec if v), -1, q)
    vec = [(v * inv) % q for v in vec]
    return tuple(c + 1 for c, v in zip(cols, vec) if v), tuple(v for v in vec if v)


def weight_words(rows, q, w):
    """Every weight-w kernel vector with first coefficient 1, as sorted (positions, coeffs)."""
    words = []
    for cols in itertools.combinations(range(len(rows[0])), w):
        for tail in itertools.product(range(1, q), repeat=w - 1):
            coeffs = (1,) + tail
            if all(sum(row[c] * x for c, x in zip(cols, coeffs)) % q == 0 for row in rows):
                words.append((tuple(c + 1 for c in cols), coeffs))
    return sorted(words)


def syndrome_words(rows, q, w, target):
    """Every weight-w vector z with rows @ z = target, as sorted (positions, coeffs).

    All coefficients run over 1..q-1; with a zero target each kernel
    word appears once per nonzero scalar multiple.
    """
    words = []
    for cols in itertools.combinations(range(len(rows[0])), w):
        for coeffs in itertools.product(range(1, q), repeat=w):
            if all(sum(row[c] * x for c, x in zip(cols, coeffs)) % q == t % q for row, t in zip(rows, target)):
                words.append((tuple(c + 1 for c in cols), coeffs))
    return sorted(words)


def find_line_bruteforce(locators):
    """Whether some affine line {a + t*b, t in the prime field} covers the locators."""
    field = locators[0].field
    targets = {x.val for x in locators}
    scalars = [field.scalar(c) for c in range(field.p)]
    for b in (field.elem(v) for v in range(1, field.size)):
        for a in (field.elem(v) for v in range(field.size)):
            if targets <= {(a + t * b).val for t in scalars}:
                return True
    return False


def lagrange_leading_coeff(points):
    """Top coefficient of the interpolating polynomial through the points."""
    field = points[0][0].field
    total = field.zero
    for i, (xi, yi) in enumerate(points):
        denom = field.one
        for j, (xj, _) in enumerate(points):
            if i != j:
                denom = denom * (xi - xj)
        total = total + yi * denom.inverse()
    return total


def lagrange_eval(points, x):
    """Value of the interpolating polynomial at x."""
    field = points[0][0].field
    total = field.zero
    for i, (xi, yi) in enumerate(points):
        term = yi
        for j, (xj, _) in enumerate(points):
            if i != j:
                term = term * (x - xj) * (xi - xj).inverse()
        total = total + term
    return total


def closed_form_representatives(locators, d, v):
    """The weight-v words of the base code [1; y; ...; y^(d-3)] holding locators 1 and 0, by algebra.

    Rows of 0-based columns, then coefficients, sorted, as verify._representatives returns them:
    locator 0 has coefficient 1 and locator 1 coefficient c, and the word kills y^t for t <= d-3.
    Field arithmetic is the element API and columns come from locators.columns.
    - v = 3: c_a = -(1 + c) and x_a = -c/c_a at d = 4; at d >= 5 the t = 2 row forces 1 = 0.
    - v = 4 at d = 5: c_b = -(1 + c + c_a), x_b = -(c + c_a x_a)/c_b, and x_a a root in GF(q^m) of
      c_a(c_a + c_b) x^2 + 2c c_a x + c(c + c_b), the square root of the discriminant being half its
      discrete log.  In characteristic 2 only c = c_a = c_b = 1 is left, where the quadratic vanishes,
      so every x gives {x, x + 1, 1, 0}.
    """
    field, n = locators.field, locators.n
    q, k = field.p, field.scalar

    def column(x):
        return int(locators.columns(x.val))

    def square_roots(x):
        if not x:
            return [x]
        log = int(field.log_array(x.val))
        return [] if log % 2 else [field.e ** (log // 2), -(field.e ** (log // 2))]

    words = []
    if (v, d) == (3, 4):
        for c in range(1, q):
            ca = -(1 + c) % q
            if ca and (xa := -k(c) / k(ca)).val not in (0, 1):
                words.append((column(xa), n - 2, n - 1, ca, c, 1))
    elif (v, d) == (4, 5):
        for c, ca in itertools.product(range(1, q), repeat=2):
            cb = -(1 + c + ca) % q
            if not cb:
                continue
            a, b, z = k(ca * (ca + cb)), k(2 * c * ca), k(c * (c + cb))
            if a:
                roots = [(r - b) / (a + a) for r in square_roots(b * b - k(4) * a * z)]
            elif b:
                roots = [-z / b]
            else:
                roots = [] if z else [field.elem(v) for v in range(field.size)]
            for xa in roots:
                xb = -(k(c) + k(ca) * xa) / k(cb)
                if {xa.val, xb.val}.isdisjoint((0, 1)) and column(xa) < column(xb):
                    words.append((column(xa), column(xb), n - 2, n - 1, ca, cb, c, 1))
    elif v != 3 or d < 4:
        raise NotImplementedError(f"no closed form for weight {v} at d = {d}")
    return sorted(words)


def macwilliams_weights(rows, q, w_max):
    """[A_0, ..., A_w_max], the weight distribution of the kernel of rows over GF(q), q prime, by MacWilliams.

    The dual code is the row space, the words uH for u in GF(q)^r.  With
    h the histogram of the columns over GF(q)^r and F its FFT, the
    columns orthogonal to u number (1/q) sum_t F(t u), t in GF(q), which
    gives every weight of uH at once; each dual word has q^(r-k) such u,
    the count of weight 0.  Then A_w = q^-k sum_j B_j K_w(j), with the
    Krawtchouk polynomials K_w(j) = sum_i (-1)^i (q-1)^(w-i) C(j, i)
    C(n-j, w-i), in exact integers.  ValueError when q^r exceeds 2^22,
    before the histogram is allocated.
    """
    rows = np.asarray(rows, dtype=np.int64) % q
    r, n = rows.shape
    if q**r > 1 << 22:
        raise ValueError(f"a histogram of {q**r} entries over GF({q})^{r}, more than 2^22")
    hist = np.zeros((q,) * r)
    np.add.at(hist, tuple(rows), 1)
    spectrum = np.fft.fftn(hist)
    total = sum(spectrum[np.ix_(*[t * np.arange(q) % q] * r)] for t in range(q)).real
    rounded = np.rint(total)
    assert np.abs(total - rounded).max() < 0.25, "FFT rounding residue"
    orthogonal, rest = np.divmod(rounded.astype(np.int64), q)
    assert not rest.any(), "orthogonal column counts not integral"
    counts = np.bincount((n - orthogonal).ravel(), minlength=n + 1).tolist()
    multiplicity = counts[0]
    assert all(c % multiplicity == 0 for c in counts), "dual words not counted equally often"
    dual = [c // multiplicity for c in counts]
    size = sum(dual)  # q^k
    weights = []
    for w in range(w_max + 1):
        krawtchouk = [sum((-1) ** i * (q - 1) ** (w - i) * math.comb(j, i) * math.comb(n - j, w - i)
                          for i in range(w + 1)) for j in range(n + 1)]
        count, rest = divmod(sum(b * k for b, k in zip(dual, krawtchouk)), size)
        assert not rest, f"A_{w} not integral"
        weights.append(count)
    return weights


def shift_counts_bruteforce(words, q, n, subset):
    """For every shift s of Z_q^n in lexicographic order, the words v with every (v_i + s_i) % q in subset."""
    inside = set(subset)
    return [sum(all((v + s) % q in inside for v, s in zip(word, shift)) for word in words)
            for shift in itertools.product(range(q), repeat=n)]
