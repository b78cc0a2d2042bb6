"""Texture-based adulteration screening toolkit."""

from .classifier import SolverConfig
from .dataset import (
    DatasetEntry,
    LabeledDataset,
    ManifestError,
    SyntheticSpec,
    filter_group,
    generate_synthetic,
    load_manifest,
    serialize_manifest,
)
from .evaluation import (
    DEFAULT_RESOLUTION,
    DEFAULT_SWEEP_RESOLUTIONS,
    EvalReport,
    loocv,
    render_percent,
    resolution_sweep,
)
from .features import (
    Comparator,
    FeatureKind,
    extract_feature,
    format_feature,
    gray_histogram,
    lbp_histogram,
    lbp_transform,
    normalize_l1,
)
from .imagecore import (
    GrayImage,
    PnmDecodeError,
    Resolution,
    RgbImage,
    decode_image,
    encode_pgm,
    resize_bilinear,
    to_grayscale,
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
    "RgbImage",
    "SolverConfig",
    "SyntheticSpec",
    "decode_image",
    "encode_pgm",
    "extract_feature",
    "filter_group",
    "format_feature",
    "generate_synthetic",
    "gray_histogram",
    "lbp_histogram",
    "lbp_transform",
    "load_manifest",
    "loocv",
    "normalize_l1",
    "render_percent",
    "resize_bilinear",
    "resolution_sweep",
    "serialize_manifest",
    "to_grayscale",
]
