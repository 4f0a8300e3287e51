"""References written apart from the library: the per-component Gaussian-mixture
terms (scipy Cholesky solves, one component at a time), and the exact-law KL
of a 2-D Gaussian target carried in ``decimal`` arithmetic."""

import decimal
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import logsumexp


def reference_terms(gm, x):
    """Per-component loop: log w_k + log N(x; m_k, C_k), shape (n, K), and
    the component gradients -C_k^-1 (x - m_k), shape (K, n, d)."""
    log_pdfs, grads = [], []
    for w, m, c in zip(gm.weights, gm.means, gm.covariances):
        factor = cho_factor(c, lower=True)
        diff = x - m
        sol = cho_solve(factor, diff.T).T
        log_det = 2.0 * np.sum(np.log(np.diag(factor[0])))
        log_pdfs.append(math.log(w) - 0.5 * (gm.d * math.log(2 * math.pi) + log_det)
                        - 0.5 * np.sum(diff * sol, axis=1))
        grads.append(-sol)
    return np.stack(log_pdfs, axis=1), np.stack(grads)


def reference_score_and_log_density(gm, x):
    """Score (n, d) and log-density (n,) of the mixture at the rows of x (n, d)."""
    log_pdfs, grads = reference_terms(gm, x)
    log_total = logsumexp(log_pdfs, axis=1, keepdims=True)
    resp = np.exp(log_pdfs - log_total)
    return np.einsum("nk,knd->nd", resp, grads), log_total[:, 0]


def reference_log_density(gm, x):
    return reference_score_and_log_density(gm, x)[1]


def decimal_final_kl(s, mean, cov, kind, digits=40):
    """KL(law of X_1 || law of Y_1) for sampler ``kind`` on a 2-D Gaussian
    target N(mean, cov), in ``decimal`` arithmetic at ``digits`` digits.

    The target's principal axes come in closed form, and along each one the
    exact 1-D law of the iterate is carried step by step through the
    sampler's step, written out as an affine map of (y, z_mid, z) and run on
    the float64 schedule's own alpha, alpha_bar and sigma.  So the only
    rounding left in the library's value is its own.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        D = decimal.Decimal
        (a, b), (_, c) = (map(D, row) for row in cov)
        m = [D(v) for v in mean]
        half, root = (a + c) / 2, (((a - c) / 2) ** 2 + b * b).sqrt()
        alpha, abar, sigma = ([D(float(v)) for v in arr]
                              for arr in (s.alpha, s.alpha_bar, s.sigma))
        kl = D(0)
        for lam in (half - root, half + root):
            # unit axis u of eigenvalue lam, and the target's mean along it
            u = (b, lam - a) if b else ((D(1), D(0)) if lam == a else (D(0), D(1)))
            norm = (u[0] ** 2 + u[1] ** 2).sqrt()
            mu = (u[0] * m[0] + u[1] * m[1]) / norm
            y_mean, y_var = _decimal_walk(s.T, kind, mu, lam, alpha, abar, sigma)
            p_mean, p_var = abar[1].sqrt() * mu, abar[1] * lam + 1 - abar[1]
            ratio = p_var / y_var
            kl += (ratio - 1 - ratio.ln() + (y_mean - p_mean) ** 2 / y_var) / 2
        return float(kl)


def _decimal_walk(T, kind, mu, lam, alpha, abar, sigma):
    """Mean and variance of Y_1 along one axis, from Y_T ~ N(0, 1).  An affine
    form is a list [coefficient of y, of z_mid, of z, constant]."""

    def score(t, x):  # exact 1-D score -(x - m_t) / v_t of an affine form x
        v = abar[t] * lam + 1 - abar[t]
        shifted = x[:3] + [x[3] - abar[t].sqrt() * mu]
        return [-e / v for e in shifted]

    def comb(*terms):  # sum of coefficient * form
        return [sum(k * x[i] for k, x in terms) for i in range(4)]

    y, z_mid, z, one = ([int(i == j) for j in range(4)] for i in range(4))
    mean, var = decimal.Decimal(0), decimal.Decimal(1)
    for t in range(T, 1, -1):
        at, om = alpha[t], 1 - alpha[t]
        root = at.sqrt()
        if kind == "ode":
            out = comb((1 / root, y), (om / (2 * root), score(t, y)))
        elif kind == "ddpm":
            out = comb((1 / root, y), (om / root, score(t, y)), (om.sqrt() / root, z))
        else:
            s_y = score(t, y)
            y_mid = comb((1 / root, y), (om / (2 * at * root), s_y), (om, z_mid))
            g = comb((at * root, score(t - 1, y_mid)),
                     (-1, score(t, comb((1, y), (om, z_mid)))))
            out = comb((1 / root, y), (om / root, s_y), (om * at / root, g),
                       (sigma[t] / root, z))
        mean = out[0] * mean + out[3]
        var = out[0] ** 2 * var + out[1] ** 2 + out[2] ** 2
    return mean, var
