"""Binary hash code learning with a pairwise margin loss and quantized
Fisher-style class centers, plus exact Hamming-ranking retrieval."""

from .binary_codes import (
    BinaryCodeMatrix,
    dissimilarity,
    hamming_distance,
    pack,
    unpack,
)
from .centers import (
    init_centers,
    inter_loss,
    intra_loss,
    quant_loss,
    target_matrix,
    update_centers,
    update_codes,
)
from .datasets import Dataset, DatasetManifest, load_dataset, load_manifest, make_synthetic
from .encoder import EncoderSpec, EncoderState, forward, init_state, load_checkpoint, save_checkpoint
from .evaluation import MetricsReport, average_precision, metrics_report, search
from .exceptions import ConfigError, DataError, FisherHashError, NumericalError
from .pairwise import MarginParams, PairSets, loss_dissimilar, loss_similar
from .training import HyperParams, TrainReport, train

__version__ = "0.1.0"

__all__ = [
    "BinaryCodeMatrix",
    "ConfigError",
    "DataError",
    "Dataset",
    "DatasetManifest",
    "EncoderSpec",
    "EncoderState",
    "FisherHashError",
    "HyperParams",
    "MarginParams",
    "MetricsReport",
    "NumericalError",
    "PairSets",
    "TrainReport",
    "average_precision",
    "dissimilarity",
    "forward",
    "hamming_distance",
    "init_centers",
    "init_state",
    "inter_loss",
    "intra_loss",
    "load_checkpoint",
    "load_dataset",
    "load_manifest",
    "loss_dissimilar",
    "loss_similar",
    "make_synthetic",
    "metrics_report",
    "pack",
    "quant_loss",
    "save_checkpoint",
    "search",
    "target_matrix",
    "train",
    "unpack",
    "update_centers",
    "update_codes",
]
