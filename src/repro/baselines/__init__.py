"""Baseline systems Smol is compared against.

* :mod:`repro.baselines.naive` -- standard ResNets on full-resolution data
  (the "naive" baseline of Figure 4).
* :mod:`repro.baselines.tahoma` -- Tahoma-style cascades with a fixed input
  format and a fixed target model.
* :mod:`repro.baselines.blazeit` -- BlazeIt-style aggregation with a single
  tiny specialized NN and full-resolution video.
* :mod:`repro.baselines.dali` -- a DALI-like preprocessing library model
  (training-oriented, no buffer reuse into the inference engine).
* :mod:`repro.baselines.pytorch_loader` -- a PyTorch-DataLoader-like CPU
  preprocessing baseline with an unoptimized execution backend.
"""

from repro import _lazy_exports

_EXPORTS = {
    "NaiveResNetBaseline": "repro.baselines.naive",
    "TahomaBaseline": "repro.baselines.tahoma",
    "BlazeItBaseline": "repro.baselines.blazeit",
    "DaliLikeLoader": "repro.baselines.dali",
    "PyTorchLikeLoader": "repro.baselines.pytorch_loader",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
