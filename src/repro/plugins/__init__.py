"""Operator plugin library.

The bundled Wintermute operator plugins, one module each.  Importing
this package imports none of them: :mod:`repro.core.registry` lists
them by name and imports a plugin's module, which registers it, on the
first lookup of that name:

- ``tester`` -- performs configurable Query Engine traffic (the Fig 5
  overhead driver).
- ``aggregator`` -- window aggregates (mean/std/min/max/quantiles/...).
- ``smoother`` -- moving-average smoothing of individual sensors.
- ``perfmetrics`` -- derived CPU metrics: CPI, instruction/FLOP rates,
  vectorisation and miss ratios (Fig 7 stage 1).
- ``persyst`` -- per-job quantile aggregation, a re-implementation of
  the PerSyst transport described in the paper (Fig 7 stage 2).
- ``regressor`` -- window-statistics random-forest regression with
  online training-set accumulation (Fig 6).
- ``classifier`` -- random-forest classification of sensor windows.
- ``clustering`` -- Bayesian Gaussian mixture clustering of per-unit
  feature averages with outlier flagging (Fig 8).
- ``health`` -- threshold health checks usable as feedback-loop
  controllers.
- ``correlation`` -- pairwise correlation signatures of a unit's
  sensors (fault-detection fingerprints).
- ``filesink`` -- CSV export of sensor streams for external tooling.
"""
