"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the library's own code paths: moments
come from Gauss-Hermite quadrature instead of recurrences, TV values from
closed forms or scipy's adaptive quadrature, and SDP optima from a
log-barrier Newton method or plain grid search instead of the primal-dual
solver.
"""

import itertools
import math

import numpy as np


def hermgauss_moments(mean, std, max_degree, nodes=96):
    """Raw moments of N(mean, std^2) by Gauss-Hermite quadrature."""
    x, w = np.polynomial.hermite.hermgauss(nodes)
    pts = mean + std * math.sqrt(2.0) * x
    wts = w / math.sqrt(math.pi)
    return np.array([float(np.sum(wts * pts**k)) for k in range(max_degree + 1)])


def normal_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def gaussian_tv_equal_var(m1, m2, sigma):
    """Closed form for equal variances: 2 (2 Phi(|dm| / (2 sigma)) - 1)."""
    return 2.0 * (2.0 * normal_cdf(abs(m1 - m2) / (2.0 * sigma)) - 1.0)


def gaussian_tv(m1, s1, m2, s2):
    """TV of N(m1, s1^2) and N(m2, s2^2) from the crossings of the densities.

    The densities cross where (x - m2)^2 / (2 s2^2) - (x - m1)^2 / (2 s1^2)
    + ln(s2 / s1) = 0: at both roots of this quadratic when s1 != s2, at the
    root of the linear equation when s1 == s2.  Between crossings one density
    dominates, so the TV sums |Phi_1 - Phi_2| differences, Phi by math.erfc.
    """
    a = 0.5 / s2**2 - 0.5 / s1**2
    b = m1 / s1**2 - m2 / s2**2
    c = 0.5 * m2**2 / s2**2 - 0.5 * m1**2 / s1**2 + math.log(s2 / s1)
    if a == 0.0:
        roots = [-c / b]
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        roots = sorted([q / a, c / q])

    def cdf_gap(x):
        return (0.5 * math.erfc(-(x - m1) / (s1 * math.sqrt(2.0)))
                - 0.5 * math.erfc(-(x - m2) / (s2 * math.sqrt(2.0))))

    cuts = [cdf_gap(-math.inf), *map(cdf_gap, roots), cdf_gap(math.inf)]
    return sum(abs(hi - lo) for lo, hi in zip(cuts[:-1], cuts[1:]))


def normal_pdf(mean, std):
    return lambda x: math.exp(-0.5 * ((x - mean) / std) ** 2) / (std * math.sqrt(2.0 * math.pi))


def exponential_pdf(rate):
    return lambda x: rate * math.exp(-rate * x) if x >= 0 else 0.0


def quad_tv(pdf_mu, pdf_nu, lo, hi, points=()):
    """Integral of |pdf_mu - pdf_nu| over [lo, hi] by scipy's adaptive
    quadrature, with ``points`` (a density's jump) as forced breakpoints."""
    from scipy.integrate import quad

    value, _ = quad(lambda x: abs(pdf_mu(x) - pdf_nu(x)), lo, hi, points=points,
                    limit=500, epsabs=1e-12, epsrel=1e-12)
    return value


def atomic_tv(points_mu, weights_mu, points_nu, weights_nu, tol=1e-9):
    """Union-support TV for univariate atomic measures."""
    table = {}
    for p, w in zip(points_mu, weights_mu):
        key = round(p / tol)
        table[key] = table.get(key, 0.0) + w
    for p, w in zip(points_nu, weights_nu):
        key = round(p / tol)
        table[key] = table.get(key, 0.0) - w
    return sum(abs(v) for v in table.values())


def first_match_tv(points_mu, weights_mu, points_nu, weights_nu, tol=1e-9):
    """TV of atomic measures by a scan of every merged atom per atom.

    mu's atoms enter with weight +w and nu's with -w; an atom joins the first
    merged atom within ``tol`` of it (max norm), else it starts a new one.
    The merged atoms mu began and those nu added are summed apart.
    """
    merged_pts, merged_w = [], []
    for points, weights, sign in ((points_mu, weights_mu, 1.0),
                                  (points_nu, weights_nu, -1.0)):
        nu_start = len(merged_w)
        for p, w in zip(points, weights):
            for i, q in enumerate(merged_pts):
                if np.max(np.abs(p - q)) <= tol:
                    merged_w[i] += sign * w
                    break
            else:
                merged_pts.append(p)
                merged_w.append(sign * float(w))
    return float(sum(abs(w) for w in merged_w[:nu_start])
                 + sum(abs(w) for w in merged_w[nu_start:]))


def grid_min_sdp(c, f0, coeffs, lo, hi, steps):
    """Brute-force grid minimum of c @ x over {x : f0 + sum x_i F_i psd}."""
    c = np.asarray(c, dtype=float)
    best = math.inf
    axes = [np.linspace(lo, hi, steps)] * len(c)
    for xs in itertools.product(*axes):
        s = f0 + np.tensordot(np.array(xs), coeffs, axes=1)
        if np.linalg.eigvalsh(s)[0] >= -1e-12:
            best = min(best, float(c @ np.array(xs)))
    return best


def barrier_solve(c, block_data, x0, gap_target=1e-7, t0=1.0, factor=8.0):
    """Log-barrier central-path solve with damped Newton inner iterations.

    ``block_data`` is a list of (f0, coeffs) pairs; ``x0`` must be strictly
    feasible.  On return the objective is within ~gap_target of the optimum.
    """
    c = np.asarray(c, dtype=float)
    m = len(c)
    total_dim = sum(f0.shape[0] for f0, _ in block_data)

    def barrier_parts(x):
        value = 0.0
        grad = np.zeros(m)
        hess = np.zeros((m, m))
        for f0, coeffs in block_data:
            s = f0 + np.tensordot(x, coeffs, axes=1)
            try:
                chol = np.linalg.cholesky(s)
            except np.linalg.LinAlgError:
                return None
            value -= 2.0 * float(np.sum(np.log(np.diag(chol))))
            sinv = np.linalg.inv(s)
            grad -= np.tensordot(coeffs, sinv, axes=([1, 2], [0, 1]))
            tmp = np.einsum("ab,ibc,cd->iad", sinv, coeffs, sinv, optimize=True)
            hess += np.tensordot(coeffs, tmp, axes=([1, 2], [1, 2]))
        return value, grad, hess

    x = np.asarray(x0, dtype=float).copy()
    t = t0
    while total_dim / t > gap_target:
        for _ in range(100):
            parts = barrier_parts(x)
            assert parts is not None, "barrier oracle lost feasibility"
            value, grad, hess = parts
            g = t * c + grad
            h = hess + 1e-14 * np.eye(m)
            step = np.linalg.solve(h, -g)
            decrement = float(-g @ step)
            if decrement < 1e-18:
                break
            alpha = 1.0
            base = t * float(c @ x) + value
            for _ in range(60):
                cand = x + alpha * step
                parts_c = barrier_parts(cand)
                if parts_c is not None and t * float(c @ cand) + parts_c[0] < base:
                    break
                alpha *= 0.5
            else:
                break
            x = x + alpha * step
        t *= factor
    return float(c @ x), x


def random_sdp_instance(rng, max_vars=4, size=3):
    """Random bounded SDP with known strictly feasible primal/dual points."""
    m = int(rng.integers(1, max_vars + 1))
    coeffs = np.stack(
        [0.5 * (a + a.T) for a in rng.standard_normal((m, size, size))]
    )
    x0 = rng.standard_normal(m)
    s0 = rng.standard_normal((size, size))
    s0 = s0 @ s0.T + 0.3 * np.eye(size)
    f0 = s0 - np.tensordot(x0, coeffs, axes=1)
    z0 = rng.standard_normal((size, size))
    z0 = z0 @ z0.T + 0.3 * np.eye(size)
    c = np.tensordot(coeffs, z0, axes=([1, 2], [0, 1]))
    return c, f0, coeffs, x0


def random_block_sdp(rng, sizes, m):
    """Random bounded SDP over several blocks, as ``random_sdp_instance``.

    Returns (c, [(f0, coeffs) per block], x0); x0 is strictly feasible, and
    c = sum_k adjoint_k(Z0_k) for positive definite Z0_k, so the objective
    is bounded below on the feasible set.
    """
    x0 = rng.standard_normal(m)
    c = np.zeros(m)
    block_data = []
    for size in sizes:
        coeffs = np.stack([0.5 * (a + a.T) for a in rng.standard_normal((m, size, size))])
        s0 = rng.standard_normal((size, size))
        z0 = rng.standard_normal((size, size))
        f0 = s0 @ s0.T + 0.3 * np.eye(size) - np.tensordot(x0, coeffs, axes=1)
        c += np.tensordot(coeffs, z0 @ z0.T + 0.3 * np.eye(size), axes=([1, 2], [0, 1]))
        block_data.append((f0, coeffs))
    return c, block_data, x0
