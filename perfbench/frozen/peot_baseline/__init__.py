"""Power-efficient oblique trees for neural-signal classification.

A single probabilistically-routed oblique tree is trained like a neural
network, regularized by the power cost of the features it reads, compressed
by pruning plus weight sharing, and deployed with single-path inference.
An axis-aligned gradient-boosted ensemble (optionally quantized) serves as
the conventional baseline, and an evaluation harness produces trade-off
sweeps and normalized benchmark reports.
"""

from .boosting import GbtConfig, GbtEnsemble, predict_gbt, quantize_gbt, train_gbt
from .compression import (
    Codebook,
    CompressionState,
    QuantFormat,
    compress_pipeline,
    model_size_bits,
    prune,
    quantize_values,
    share,
)
from .cost import deployed_power, power_penalty, power_penalty_gradients
from .data import Dataset, Recording
from .evaluation import (
    Metrics,
    benchmark_report,
    compute_metrics,
    cross_validate,
    tradeoff_sweep,
)
from .features import (
    FeatureEntry,
    FeatureSpec,
    band_power,
    default_feature_spec,
    extract_features,
    feature_cost_vector,
    line_length,
    variance,
)
from .tree import ObliqueTree, TrainConfig, loss_and_gradients, train

__all__ = [
    "Dataset", "Recording",
    "ObliqueTree", "TrainConfig", "loss_and_gradients", "train",
    "GbtConfig", "GbtEnsemble", "predict_gbt", "quantize_gbt", "train_gbt",
    "Codebook", "CompressionState", "QuantFormat", "compress_pipeline",
    "model_size_bits", "prune", "quantize_values", "share",
    "deployed_power", "power_penalty", "power_penalty_gradients",
    "Metrics", "benchmark_report", "compute_metrics", "cross_validate",
    "tradeoff_sweep",
    "FeatureEntry", "FeatureSpec", "band_power", "default_feature_spec",
    "extract_features", "feature_cost_vector", "line_length", "variance",
]
