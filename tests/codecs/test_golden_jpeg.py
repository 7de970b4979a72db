"""Golden digests pinning the JPEG-like codec's bytes in both directions.

``golden_jpeg_digests.json`` holds sha256 digests of the *encoded stream*
and of the *decoded pixels* (full frame plus corner / edge / interior /
one-block ROIs) for a fixed-seed matrix of qualities, sizes and channel
counts.  They were recorded with the per-block scalar codec, before encode
and decode became whole-image array programs, so this test holds that
rewrite -- and any later one -- to the original bytes and to the on-disk
format.  Refresh deliberately with::

    python -m pytest tests/codecs/test_golden_jpeg.py --update-golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.codecs.image import Image
from repro.codecs.jpeg import JpegCodec
from repro.codecs.roi import RegionOfInterest

GOLDEN_PATH = Path(__file__).with_name("golden_jpeg_digests.json")

QUALITIES = (5, 30, 75, 95, 100)
SIZES = ((1, 1), (8, 8), (13, 21), (37, 53), (128, 128), (130, 67))  # (h, w)
CHANNELS = (1, 3)


def corpus_image(height: int, width: int, channels: int) -> Image:
    """Smooth gradients, a hard-edged disc and noise: sparse blocks, dense
    blocks and (at q100) two-byte varints all occur in one image."""
    rng = np.random.default_rng([20_16, height, width, channels])
    ys, xs = np.meshgrid(np.linspace(0, 1, height), np.linspace(0, 1, width),
                         indexing="ij")
    planes = [
        120 + 100 * np.sin(2 * np.pi * 3 * xs) * np.cos(2 * np.pi * ys),
        255 * ys,
        255.0 * (np.hypot(xs - 0.5, ys - 0.5) < 0.3),
    ][:channels]
    pixels = np.stack(planes, axis=2)
    pixels[:, width // 2:] += rng.normal(0, 40, size=pixels[:, width // 2:].shape)
    return Image(pixels=np.clip(pixels, 0, 255).astype(np.uint8))


def rois(height: int, width: int) -> dict[str, RegionOfInterest]:
    return {
        "corner-tl": RegionOfInterest(0, 0, 9, 9),
        "corner-br": RegionOfInterest(max(0, width - 9), max(0, height - 9), 9, 9),
        "edge-right": RegionOfInterest(width - 1, height // 3, 5, height // 3 + 1),
        "edge-bottom": RegionOfInterest(width // 4, height - 1, width // 2 + 1, 3),
        "interior": RegionOfInterest(width // 3, height // 3,
                                     width // 3 + 1, height // 3 + 1),
        "one-block": RegionOfInterest(width // 2, height // 2, 1, 1),
    }


def _digest(header: str, payload: bytes) -> str:
    return hashlib.sha256(header.encode("ascii") + payload).hexdigest()


def compute_digests() -> dict[str, str]:
    digests: dict[str, str] = {}
    for height, width in SIZES:
        for channels in CHANNELS:
            image = corpus_image(height, width, channels)
            for quality in QUALITIES:
                codec = JpegCodec(quality=quality)
                encoded = codec.encode(image)
                key = f"q{quality} {height}x{width}x{channels}"
                digests[f"{key} stream"] = _digest(
                    f"{encoded.width},{encoded.height},{encoded.channels},"
                    f"{encoded.quality},{encoded.blocks_x},{encoded.blocks_y}",
                    encoded.data)
                decodes = {"full": codec.decode(encoded)} | {
                    name: codec.decode_roi(encoded, roi)
                    for name, roi in rois(height, width).items()}
                for name, decoded in decodes.items():
                    pixels = decoded.pixels
                    digests[f"{key} {name}"] = _digest(
                        f"{pixels.dtype.str}{pixels.shape}",
                        np.ascontiguousarray(pixels).tobytes())
    return digests


def test_codec_reproduces_the_golden_digests(request):
    digests = compute_digests()
    if request.config.getoption("--update-golden"):
        GOLDEN_PATH.write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        return
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert digests.keys() == golden.keys()
    diverged = [key for key in golden if digests[key] != golden[key]]
    assert not diverged, f"{len(diverged)} outputs changed, e.g. {diverged[:5]}"
