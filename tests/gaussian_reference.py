"""Per-component Gaussian-mixture reference, written apart from the library's
batched kernel: scipy Cholesky solves, one component at a time."""

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
