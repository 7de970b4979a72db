"""Visual compression substrate.

The paper's optimizations act on properties of real codecs: JPEG macroblocks
can be decoded independently (ROI decoding), raster-order formats permit early
stopping, and video codecs have an optional deblocking filter whose omission
trades fidelity for speed.  This package implements working numpy codecs with
exactly those hooks:

* :mod:`repro.codecs.jpeg` -- a block-DCT, quantized, entropy-coded lossy
  image codec with per-macroblock partial decoding.
* :mod:`repro.codecs.png` -- a filtered, losslessly compressed image codec
  with raster-order early stopping.
* :mod:`repro.codecs.video` -- an I/P-frame motion-compensated video codec
  with an optional deblocking filter (reduced-fidelity decoding).
* :mod:`repro.codecs.registry` -- the format registry reproducing Table 4.
"""

from repro import _lazy_exports

_EXPORTS = {
    "ProgressiveCodec": "repro.codecs.progressive",
    "ProgressiveEncoded": "repro.codecs.progressive",
    "Image": "repro.codecs.image",
    "ImageFormat": "repro.codecs.image",
    "Resolution": "repro.codecs.image",
    "JpegCodec": "repro.codecs.jpeg",
    "JpegEncoded": "repro.codecs.jpeg",
    "PngCodec": "repro.codecs.png",
    "PngEncoded": "repro.codecs.png",
    "VideoCodec": "repro.codecs.video",
    "EncodedVideo": "repro.codecs.video",
    "VideoFrameRef": "repro.codecs.video",
    "FormatCapability": "repro.codecs.registry",
    "FORMAT_REGISTRY": "repro.codecs.registry",
    "get_format": "repro.codecs.registry",
    "list_formats": "repro.codecs.registry",
    "RegionOfInterest": "repro.codecs.roi",
    "central_crop_roi": "repro.codecs.roi",
    "expand_to_blocks": "repro.codecs.roi",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
