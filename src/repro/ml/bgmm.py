"""Variational Bayesian Gaussian mixture model.

The clustering case study (Section VI-D) adopts a Bayesian Gaussian
mixture because "unlike ordinary gaussian mixture models, they are able
to determine autonomously the optimal number of clusters from data":
the Dirichlet prior over mixture weights lets superfluous components
collapse to negligible weight.

This is the standard mean-field variational treatment (Bishop, PRML
§10.2): Dirichlet prior on weights, Gaussian–Wishart priors on the
component parameters, alternating the responsibility update (E-step)
with the posterior parameter updates (M-step).  Outlier scoring follows
the paper: a point is an outlier when its probability is below a
threshold under the PDFs of *all* fitted (effective) components.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

_LOG_2PI = np.log(2.0 * np.pi)

#: Coefficients B_2k / 2k of the asymptotic series of digamma in 1/x^2.
_PSI_SERIES = (
    1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12,
    -3617 / 8160, 43867 / 14364,
)


def digamma(x):
    """The digamma function psi(x) for x > 0, elementwise.

    The recurrence psi(x) = psi(x + 1) - 1/x lifts every argument to
    x >= 6, where the asymptotic series
    psi(x) ~ ln x - 1/(2x) - sum_k B_2k / (2k x^2k) is accurate to about
    1e-14 relative.
    """
    x = np.array(x, dtype=np.float64)
    psi = np.zeros_like(x)
    while (low := x < 6.0).any():
        psi[low] -= 1.0 / x[low]
        x[low] += 1.0
    t = 1.0 / (x * x)
    series = 0.0
    for coeff in reversed(_PSI_SERIES):
        series = t * (coeff + series)
    return psi + np.log(x) - 0.5 / x - series


class BayesianGaussianMixture:
    """Mean-field variational Bayesian GMM with full covariances.

    Args:
        n_components: upper bound on mixture components; the variational
            posterior prunes unused ones.
        weight_concentration_prior: Dirichlet concentration ``alpha_0``;
            small values (default ``1/n_components``) encourage sparse
            mixtures.
        max_iter / tol: VB iteration limit and convergence threshold on
            the mean absolute responsibility change.
        reg_covar: jitter added to covariance diagonals.
        random_state: seed for the k-means-style initialisation.
    """

    def __init__(
        self,
        n_components: int = 8,
        weight_concentration_prior: Optional[float] = None,
        max_iter: int = 200,
        tol: float = 1e-4,
        reg_covar: float = 1e-6,
        random_state: Optional[int] = None,
    ) -> None:
        if n_components < 1:
            raise ValueError(f"n_components must be >= 1: {n_components}")
        self.n_components = n_components
        self.alpha0 = (
            weight_concentration_prior
            if weight_concentration_prior is not None
            else 1.0 / n_components
        )
        self.max_iter = max_iter
        self.tol = tol
        self.reg_covar = reg_covar
        self._rng = np.random.default_rng(random_state)
        self._fitted = False

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------

    def _kmeans_init(self, X: np.ndarray) -> np.ndarray:
        """Hard-assignment initial responsibilities via mini k-means."""
        n, _ = X.shape
        k = self.n_components
        centers = X[self._rng.choice(n, size=min(k, n), replace=False)]
        if len(centers) < k:  # fewer points than components
            extra = centers[self._rng.integers(0, len(centers), k - len(centers))]
            centers = np.vstack([centers, extra + 1e-6])
        labels = np.zeros(n, dtype=np.int64)
        for _ in range(10):
            d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
            new_labels = np.argmin(d2, axis=1)
            if np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for j in range(k):
                mask = labels == j
                if mask.any():
                    centers[j] = X[mask].mean(axis=0)
        resp = np.full((n, k), 1e-10)
        resp[np.arange(n), labels] = 1.0
        return resp / resp.sum(axis=1, keepdims=True)

    def fit(self, X: np.ndarray) -> "BayesianGaussianMixture":
        """Fit the variational posterior on data ``X`` of shape (N, D)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or len(X) == 0:
            raise ValueError(f"X must be a non-empty 2-D array, got {X.shape}")
        n, d = X.shape
        k = self.n_components
        # Priors: data-scaled Wishart keeps the model unit-agnostic.
        self._beta0 = 1.0
        self._m0 = X.mean(axis=0)
        self._nu0 = float(d)
        data_cov = np.cov(X.T) if n > 1 else np.eye(d)
        data_cov = np.atleast_2d(data_cov) + self.reg_covar * np.eye(d)
        self._w0_inv = data_cov * self._nu0

        resp = self._kmeans_init(X)
        for _ in range(self.max_iter):
            self._m_step(X, resp)
            new_resp = self._e_step(X)
            delta = float(np.abs(new_resp - resp).mean())
            resp = new_resp
            if delta < self.tol:
                break
        self._m_step(X, resp)
        self.responsibilities_ = resp
        self.weights_ = self._alpha / self._alpha.sum()
        self.means_ = self._m.copy()
        # Posterior expectation of each component covariance.
        covs = np.empty((k, d, d))
        for j in range(k):
            denom = self._nu[j] - d - 1.0
            scale = denom if denom > 1e-3 else self._nu[j]
            covs[j] = self._w_inv[j] / scale + self.reg_covar * np.eye(d)
        self.covariances_ = covs
        self._fitted = True
        return self

    def _m_step(self, X: np.ndarray, resp: np.ndarray) -> None:
        n, d = X.shape
        k = self.n_components
        nk = resp.sum(axis=0) + 1e-10
        xbar = (resp.T @ X) / nk[:, None]
        self._alpha = self.alpha0 + nk
        self._beta = self._beta0 + nk
        self._nu = self._nu0 + nk
        self._m = (self._beta0 * self._m0[None, :] + nk[:, None] * xbar) / (
            self._beta[:, None]
        )
        self._w_inv = np.empty((k, d, d))
        for j in range(k):
            diff = X - xbar[j]
            sk = (resp[:, j][:, None] * diff).T @ diff / nk[j]
            dm = (xbar[j] - self._m0)[:, None]
            self._w_inv[j] = (
                self._w0_inv
                + nk[j] * sk
                + (self._beta0 * nk[j] / (self._beta0 + nk[j])) * (dm @ dm.T)
                + self.reg_covar * np.eye(d)
            )

    def _expected_log_det(self, j: int, d: int) -> float:
        sign, logdet_winv = np.linalg.slogdet(self._w_inv[j])
        log_det_w = -logdet_winv  # |W| = 1/|W^-1|
        return float(
            digamma((self._nu[j] - np.arange(d)) / 2.0).sum()
            + d * np.log(2.0)
            + log_det_w
        )

    def _e_step(self, X: np.ndarray) -> np.ndarray:
        n, d = X.shape
        k = self.n_components
        log_pi = digamma(self._alpha) - digamma(self._alpha.sum())
        log_rho = np.empty((n, k))
        for j in range(k):
            diff = X - self._m[j]
            # nu_j * (x-m)^T W_j (x-m) via a solve against W^-1.
            solved = np.linalg.solve(self._w_inv[j], diff.T).T
            quad = self._nu[j] * np.einsum("ij,ij->i", diff, solved)
            log_lambda = self._expected_log_det(j, d)
            log_rho[:, j] = (
                log_pi[j]
                + 0.5 * log_lambda
                - 0.5 * d / self._beta[j]
                - 0.5 * quad
                - 0.5 * d * _LOG_2PI
            )
        log_rho -= log_rho.max(axis=1, keepdims=True)
        rho = np.exp(log_rho)
        return rho / rho.sum(axis=1, keepdims=True)

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("model is not fitted")

    def effective_components(self, weight_threshold: float = 0.02) -> np.ndarray:
        """Indices of components carrying non-negligible weight.

        This is the "autonomously determined" cluster count: components
        pruned by the Dirichlet posterior fall below the threshold.
        """
        self._require_fitted()
        return np.nonzero(self.weights_ >= weight_threshold)[0]

    def component_log_pdf(self, X: np.ndarray) -> np.ndarray:
        """Log density of every point under every component, (N, K)."""
        self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n, d = X.shape
        out = np.empty((n, self.n_components))
        for j in range(self.n_components):
            chol = np.linalg.cholesky(self.covariances_[j])
            diff = X - self.means_[j]
            z = np.linalg.solve(chol, diff.T)
            quad = (z**2).sum(axis=0)
            logdet = 2.0 * np.log(np.diag(chol)).sum()
            out[:, j] = -0.5 * (d * _LOG_2PI + logdet + quad)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Most responsible component per point (weighted by posterior
        mixture weights)."""
        log_pdf = self.component_log_pdf(X)
        return np.argmax(log_pdf + np.log(self.weights_ + 1e-300), axis=1)

    def score_samples(self, X: np.ndarray) -> np.ndarray:
        """Log mixture density per point."""
        log_pdf = self.component_log_pdf(X) + np.log(self.weights_ + 1e-300)
        m = log_pdf.max(axis=1, keepdims=True)
        return (m + np.log(np.exp(log_pdf - m).sum(axis=1, keepdims=True)))[:, 0]

    def outlier_mask(
        self,
        X: np.ndarray,
        pdf_threshold: float = 1e-3,
        weight_threshold: float = 0.02,
    ) -> np.ndarray:
        """Points below ``pdf_threshold`` under *all* effective
        components' PDFs — the paper's outlier rule (threshold 0.001)."""
        comps = self.effective_components(weight_threshold)
        log_pdf = self.component_log_pdf(X)[:, comps]
        return np.all(log_pdf < np.log(pdf_threshold), axis=1)
