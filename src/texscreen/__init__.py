"""Texture-based adulteration screening toolkit."""

from .classifier import SolverConfig
from .dataset import (
    DatasetEntry,
    LabeledDataset,
    ManifestError,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    serialize_manifest,
)
from .evaluation import (
    DEFAULT_RESOLUTION,
    DEFAULT_SWEEP_RESOLUTIONS,
    EvalReport,
    feature_tables,
    loocv,
    render_percent,
    resolution_sweep,
)
from .features import (
    Comparator,
    FeatureKind,
    extract_feature,
    format_feature,
    lbp_transform,
)
from .imagecore import (
    GrayImage,
    PnmDecodeError,
    Resolution,
    decode_image,
    encode_pgm,
    resize_bilinear,
)

__version__ = "0.1.0"

__all__ = [
    "Comparator",
    "DEFAULT_RESOLUTION",
    "DEFAULT_SWEEP_RESOLUTIONS",
    "DatasetEntry",
    "EvalReport",
    "FeatureKind",
    "GrayImage",
    "LabeledDataset",
    "ManifestError",
    "PnmDecodeError",
    "Resolution",
    "SolverConfig",
    "SyntheticSpec",
    "decode_image",
    "encode_pgm",
    "extract_feature",
    "feature_tables",
    "format_feature",
    "generate_synthetic",
    "lbp_transform",
    "load_manifest",
    "loocv",
    "render_percent",
    "resize_bilinear",
    "resolution_sweep",
    "serialize_manifest",
]
