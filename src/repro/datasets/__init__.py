"""Synthetic datasets standing in for the paper's eight evaluation datasets.

Four image classification datasets (bike-bird, animals-10, birds-200,
imagenet) and four video aggregation datasets (night-street, taipei,
amsterdam, rialto).  The synthetic generators produce parametric shapes and
textures so classes are genuinely learnable by the numpy models, and every
dataset is stored in multiple natively-present renditions (full resolution,
161-pixel thumbnails in PNG and JPEG) to exercise the multi-format planner.
"""

from repro import _lazy_exports

_EXPORTS = {
    "SyntheticImageGenerator": "repro.datasets.synthetic",
    "load_image_dataset": "repro.datasets.images",
    "list_image_datasets": "repro.datasets.images",
    "MultiResolutionStore": "repro.datasets.store",
    "VideoDataset": "repro.datasets.video",
    "load_video_dataset": "repro.datasets.video",
    "list_video_datasets": "repro.datasets.video",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
