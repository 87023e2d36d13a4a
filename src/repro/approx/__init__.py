"""Approximate quantile machinery: ε-sketches, lossy trimming, sampling."""

from repro.approx.lossy_sum_trim import LossySumTrimmer
from repro.approx.randomized import SampledAnswers
from repro.approx.sketch import Bucket, epsilon_sketch

__all__ = ["Bucket", "epsilon_sketch", "LossySumTrimmer", "SampledAnswers"]
