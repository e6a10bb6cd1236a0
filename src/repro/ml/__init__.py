"""From-scratch ML substrate.

The paper's plugins lean on OpenCV random forests and a Bayesian
Gaussian mixture model; this package reimplements both on NumPy,
plus the statistical feature extraction and error metrics the case
studies use:

- :mod:`repro.ml.stats` -- window statistics / feature vectors,
  quantiles, streaming accumulators.
- :mod:`repro.ml.tree` -- CART decision trees (regression and
  classification).
- :mod:`repro.ml.forest` -- random forests over those trees.
- :mod:`repro.ml.bgmm` -- variational Bayesian Gaussian mixture with
  automatic effective component count and outlier scoring.
- :mod:`repro.ml.metrics` -- relative error and binned error profiles.

Each module is imported on its own: a plugin that needs window
statistics does not load the forests or the mixture model.
"""
