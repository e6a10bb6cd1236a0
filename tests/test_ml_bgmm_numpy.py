"""The Bayesian GMM's special functions in NumPy, pinned to frozen
reference values.

``digamma`` and the triangular solve of :mod:`repro.ml.bgmm` are checked
against literals computed with ``scipy.special.digamma`` and
``scipy.linalg.solve_triangular(..., lower=True)`` (SciPy 1.17), and the
fitted mixture on the Fig 8 features against the fit those functions
produced (:mod:`tests.fig8_bgmm_fit`).  The references are frozen so the
check needs nothing beyond NumPy.
"""

import numpy as np

from repro.ml.bgmm import BayesianGaussianMixture, digamma
from tests import fig8_bgmm_fit as fig8

#: The root of digamma, where only an absolute bound means anything.
PSI_ROOT = 1.4616321449683622

#: (x, psi(x)) over the arguments the mixture passes: the Dirichlet
#: concentrations alpha and the Wishart terms (nu - i)/2, 0.05 ... 1e4.
DIGAMMA = [
    (0.05, -20.49784499129987),
    (0.08314693681205675, -12.475079696731452),
    (0.125, -8.388492663295855),
    (0.12500112346009454, -8.3884192029846),
    (0.1382682620245631, -7.60254499334483),
    (0.2299316489133851, -4.60087167862273),
    (0.3823622456658649, -2.694946042825395),
    (0.5, -1.9635100260214235),
    (0.5000000000002, -1.9635100260204368),
    (0.6358449895939158, -1.4163360638507734),
    (1.0, -0.5772156649015329),
    (1.057371263440564, -0.4866064982862992),
    (1.4, -0.06138454458511624),
    (1.45, -0.011316422586445886),
    (1.46, -0.0015805619870834522),
    (1.4616321449683622, -9.241265521729427e-17),
    (1.47, 0.008066489011364867),
    (1.5, 0.03648997397857652),
    (1.758343632563543, 0.2538283575257808),
    (2.0, 0.42278433509846713),
    (2.924017738212865, 0.8923225889724264),
    (4.862462362330365, 1.475206457508445),
    (5.999999999, 1.7061176682504775),
    (6.0, 1.7061176684318005),
    (6.000000001, 1.7061176686131234),
    (8.085977015833738, 2.0270232766976397),
    (13.446484399985414, 2.561072608448072),
    (22.360679774997894, 3.0847767360710847),
    (37.18444056652769, 3.602383660084662),
    (61.83544660353513, 4.116368998884596),
    (74.50000000040001, 4.304072701926746),
    (102.82855942978895, 4.628192786434495),
    (149.00000000080001, 5.000586847685093),
    (170.99759466766963, 5.138722622444414),
    (284.35852397692827, 5.648476476141148),
    (472.8708045015879, 6.1577644666523685),
    (786.3551780431983, 6.666772591068206),
    (1307.6604860118296, 7.175612520075195),
    (2174.559276040982, 7.6843513420131435),
    (3616.1588543810226, 8.193029376880606),
    (6013.450635351572, 8.701670862504475),
    (10000.0, 9.21029037114285),
]

#: (chol, diff, z) with z = chol^-1 diff^T: two effective components of
#: the Fig 8 fit and the first four of its points.
TRIANGULAR = [
    (
        [[0.4911208836552757, 0.0, 0.0],
         [0.48036213244904524, 0.023223653818310454, 0.0],
         [-0.4365569916344944, -0.024828627585189545, 0.11891239464420468]],
        [[-2.879321247277952, -2.840136386843062, 2.7623346564089672],
         [-2.845153382585977, -2.8007886160325253, 2.761786087377075],
         [-2.817124846972476, -2.7796884456803133, 2.761928099966603],
         [-2.8942351503220682, -2.8647269130504305, 2.762731001197597]],
        [[-5.862754655937184, -5.793183465158912, -5.736112921945819,
          -5.893121727549201],
         [-1.028738133905127, -0.7734636926975942, -1.0453570620638097,
          -1.4594771989053295],
         [1.4915683570512959, 1.7956689923101894, 1.9496127261781255,
          1.2934790616433298]],
    ),
    (
        [[0.41055267375034754, 0.0, 0.0],
         [0.41617038489752184, 0.01935959407377348, 0.0],
         [-0.4127232068655078, -0.03239676060514601, 0.05071464264121364]],
        [[-0.0423361695166955, -0.038261045962066476, 0.05337460939323235],
         [-0.00816830482472053, 0.0010867248484704994, 0.05282604036134053],
         [0.01986023078878052, 0.02218689520068251, 0.05296805295086804],
         [-0.05725007256081183, -0.06285157216943493, 0.053770954181862285]],
        [[-0.10311994592547617, -0.01989587535773201, 0.04837437936369963,
          -0.1394463517624658],
         [0.24041938103733, 0.4838324046608079, 0.1061443289504037,
          -0.24887558414364971],
         [0.36682549225453115, 1.188791842498656, 1.5059164448201907,
          -0.23355294262845483]],
    ),
]


def assert_close(got, want, rtol=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    bad = np.abs(got - want) > rtol * np.abs(want)
    assert not bad.any(), (got[bad], want[bad])


class TestDigamma:
    def test_matches_the_frozen_table(self):
        x, want = np.array(DIGAMMA).T
        got = digamma(x)
        root = np.abs(x - PSI_ROOT) < 0.01
        assert_close(got[~root], want[~root])
        assert np.abs(got[root] - want[root]).max() <= 1e-14

    def test_scalar_in_scalar_out(self):
        for x, want in DIGAMMA:
            got = digamma(x)
            assert np.ndim(got) == 0
            assert abs(got - want) <= 1e-12 * abs(want) + 1e-14

    def test_recurrence_holds_across_the_series_threshold(self):
        x = np.linspace(0.05, 12.0, 2001)
        assert np.allclose(digamma(x + 1.0) - digamma(x), 1.0 / x,
                           rtol=1e-12, atol=1e-13)

    def test_does_not_modify_its_argument(self):
        x = np.array([0.5, 3.0, 9.0])
        digamma(x)
        assert x.tolist() == [0.5, 3.0, 9.0]


class TestTriangularSolve:
    def test_log_pdf_whitens_like_the_frozen_solve(self):
        """A one-component model whose covariance is ``chol chol^T``:
        its log density is the frozen solve's ``-(d log 2 pi + log|cov| +
        |z|^2) / 2``."""
        for chol, diff, z in TRIANGULAR:
            chol, z = np.array(chol), np.array(z)
            model = BayesianGaussianMixture(n_components=1)
            model.means_ = np.zeros((1, 3))
            model.covariances_ = (chol @ chol.T)[None]
            model._fitted = True
            logdet = 2.0 * np.log(np.diag(chol)).sum()
            want = -0.5 * (3 * np.log(2 * np.pi) + logdet + (z**2).sum(axis=0))
            assert_close(model.component_log_pdf(np.array(diff))[:, 0], want)


class TestFig8Fit:
    def test_fit_equals_the_frozen_fit(self):
        X = np.array(fig8.FEATURES)
        model = BayesianGaussianMixture(
            n_components=fig8.N_COMPONENTS, random_state=fig8.RANDOM_STATE
        ).fit(X)
        assert np.allclose(model.weights_, fig8.WEIGHTS, rtol=1e-9, atol=1e-12)
        assert np.allclose(model.means_, fig8.MEANS, rtol=1e-9, atol=1e-12)
        assert model.effective_components().tolist() == fig8.EFFECTIVE_COMPONENTS
        assert np.nonzero(model.outlier_mask(X))[0].tolist() == fig8.OUTLIERS
